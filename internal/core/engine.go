package core

// The staged pipeline engine.
//
// Every join is the same three-stage pipeline:
//
//	index sweep → pruning stages → verdict ladder
//
// The engine below owns everything the stages share — the worker pool, the
// per-pair panic quarantine, soft deadlines, the watchdog heartbeats, and the
// Stats accumulator. Its one candidate feed is a Source, whose uncertain
// graphs the workers pull one at a time and sweep against the Source's Index
// themselves: Join builds a one-shot index, and JoinWith runs whatever Source
// the caller passes (Index.Source to reuse a prebuilt index, NewStreamSource
// against a resident uncertain side).

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// JoinWith runs the join pipeline of Def. 7 over src with the same contract
// as JoinContext: on cancellation the accumulated Stats and ctx.Err() are
// returned and partial results are dropped.
func JoinWith(ctx context.Context, src *Source, opts Options) ([]Pair, Stats, error) {
	return joinEngine(ctx, src, opts)
}

// testPairHook, when non-nil, is called by every engine worker after
// processing a pair, with the worker's index. Tests install it to assert that
// pair processing really fans out across the configured workers, and to
// cancel the join deterministically mid-run.
var testPairHook func(worker int)

// joinEngine is the one shared driver: it spins up the worker pool and
// finalises the Stats. Each worker takes the next uncertain graph from a
// shared counter, sweeps it against the index with its own scratch, books
// the pairs the prescreens skip, and runs joinPair on the survivors; the unit
// of parallel work is one uncertain graph, whose candidates are verified as
// one batch over the worker's shared worlds of that graph (worlds.go). All
// containment (per-pair recover, pair deadlines, watchdog) lives in joinPair
// and the observability handles created here. Each run records one core.join
// span, cancelled runs included.
func joinEngine(ctx context.Context, src *Source, opts Options) ([]Pair, Stats, error) {
	if err := opts.normalise(); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	jo := newJoinObs(&opts)
	idx := src.idx
	stopProgress := jo.startProgress(&opts, int64(idx.Len())*int64(len(src.u)))
	defer stopProgress()
	stopWatchdog := jo.startWatchdog(&opts)
	defer stopWatchdog()

	var (
		next    atomic.Int64 // index of the next uncertain graph to sweep
		mu      sync.Mutex
		results []Pair
		total   Stats
		wg      sync.WaitGroup
	)

	worker := func(id int) {
		defer wg.Done()
		local := newRec(jo, &opts)
		var (
			pairs []Pair
			sc    indexScratch // sweep scratch, reused across graphs
		)
		hook := testPairHook
		for ctx.Err() == nil {
			gi := int(next.Add(1) - 1)
			if gi >= len(src.u) {
				break
			}
			g := src.u[gi]
			sweepStart := time.Now()
			cands, gs := src.sweep(gi, opts.Tau, &sc)
			// The prescreens are implied by the CSS bound, so rec.finish
			// counts their skips as CSS prunes that never reached a stage.
			skipped := int64(idx.Len() - len(cands))
			local.Pairs += skipped
			local.IndexSkipped += skipped
			if jo.progress {
				jo.pairsDone.Add(skipped)
			}
			// The sweep is pruning that ran before the stages (the counted
			// CSS bound among it), so its time counts in PruneTime too.
			sweepDur := time.Since(sweepStart)
			jo.sourceSeconds.ObserveDuration(sweepDur)
			local.PruneTime += sweepDur
			for _, qi := range cands {
				if ctx.Err() != nil {
					break
				}
				local.Pairs++
				pi := pairIn{q: idx.d[qi], g: g, qs: idx.qsigs[qi], gs: gs, qp: idx.qsides[qi], qi: qi, gi: gi}
				jo.beatStart(id)
				p, ok := joinPair(ctx, &pi, &opts, &local)
				jo.beatEnd(id)
				if ok {
					pairs = append(pairs, p)
					local.Results++
				}
				if hook != nil {
					hook(id)
				}
				if jo.progress {
					jo.pairsDone.Add(1)
				}
			}
		}
		local.finish()
		mu.Lock()
		results = append(results, pairs...)
		total.add(&local.Stats)
		mu.Unlock()
	}

	wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go worker(i)
	}
	wg.Wait()
	jo.tr.Record("core.join", start, time.Since(start))

	finishStats(&total, jo)
	if err := ctx.Err(); err != nil {
		total.Cancelled = true
		return nil, total, err
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Q != results[j].Q {
			return results[i].Q < results[j].Q
		}
		return results[i].G < results[j].G
	})
	return results, total, nil
}
