package core

// The staged pipeline engine.
//
// Every join driver in this package is the same three-stage pipeline:
//
//	candidate source → filter chain → verdict ladder
//
// The engine below owns everything the stages share — the worker pool, the
// per-pair panic quarantine, soft deadlines, the watchdog heartbeats, and the
// Stats accumulator — so the drivers differ only in the CandidateSource they
// plug in: Join and JoinIndexed the index (Index.Source), JoinWith whatever
// source the caller passes (NewCrossSource for every pair, NewStreamSource
// for every pair against a resident uncertain side).

import (
	"context"
	"sort"
	"sync"
	"time"

	"simjoin/internal/filter"
	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// Batch is one unit of work a CandidateSource emits: a group of query indices
// to pair with one uncertain graph, with the graph's filter signature built
// exactly once. Small batches keep one uncertain graph's candidate list
// shared across workers; sourceChunk-sized slices amortise channel traffic.
type Batch struct {
	GI  int
	G   *ugraph.Graph
	GS  *filter.GSig
	QIs []int
}

// sourceChunk is how many query indices one Batch carries.
const sourceChunk = 16

// CandidateSource feeds (query, uncertain graph) candidate pairs into the
// join engine. Implementations may prescreen pairs away before the filter
// chain ever sees them, but only with checks that are sound for Def. 7
// regardless of the configured chain (the built-in index screens are implied
// by the CSS bound); pairs skipped this way are reported through skip and
// land in Stats.IndexSkipped (and, by attribution, Stats.CSSPruned).
type CandidateSource interface {
	// Queries returns the certain-graph side and its precomputed signatures;
	// Batch.QIs index into both.
	Queries() ([]*graph.Graph, []*filter.QSig)
	// TotalPairs is |D| × |U| before any prescreening (the progress total).
	TotalPairs() int64
	// Feed emits batches until done or cancelled. emit returns false when the
	// engine is shutting down (cancellation); Feed must then return promptly.
	// skip reports pairs eliminated by prescreens; both callbacks are only
	// safe to call from Feed's goroutine.
	Feed(ctx context.Context, opts *Options, emit func(Batch) bool, skip func(int64))
}

// JoinWith runs the join pipeline of Def. 7 over an arbitrary
// CandidateSource with the same contract as JoinContext: on cancellation the
// accumulated Stats and ctx.Err() are returned and partial results are
// dropped.
func JoinWith(ctx context.Context, src CandidateSource, opts Options) ([]Pair, Stats, error) {
	return joinEngine(ctx, src, opts)
}

// NewCrossSource is the prescreen-free source pairing every query with every
// uncertain graph, for JoinWith callers whose per-pair chain accounting must
// cover all of |D| × |U| (Join prescreens through the index instead).
func NewCrossSource(d []*graph.Graph, u []*ugraph.Graph) CandidateSource {
	return newCrossSource(d, u, filter.NewGSigs(u))
}

// newCrossSource pairs every query of d with every graph of u, whose filter
// signatures gsigs the caller supplies (freshly built, or a Resident's).
func newCrossSource(d []*graph.Graph, u []*ugraph.Graph, gsigs []*filter.GSig) *crossSource {
	qis := make([]int, len(d))
	for i := range qis {
		qis[i] = i
	}
	return &crossSource{d: d, qsigs: filter.NewQSigs(d), u: u, gsigs: gsigs, qis: qis}
}

// testPairHook, when non-nil, is called by every engine worker after
// processing a pair, with the worker's index. Tests install it to assert that
// pair processing really fans out across the configured workers, and to
// cancel the join deterministically mid-run.
var testPairHook func(worker int)

// joinEngine is the one shared driver: it resolves the filter chain, spins up
// the worker pool, streams the source's batches through it, and finalises the
// Stats. All containment (per-pair recover, pair deadlines, watchdog) lives
// in joinPair and the observability handles created here.
func joinEngine(ctx context.Context, src CandidateSource, opts Options) ([]Pair, Stats, error) {
	if err := opts.normalise(); err != nil {
		return nil, Stats{}, err
	}
	chain, err := opts.chain()
	if err != nil {
		return nil, Stats{}, err
	}
	jo := newJoinObs(&opts)
	stopProgress := jo.startProgress(&opts, src.TotalPairs())
	defer stopProgress()
	stopWatchdog := jo.startWatchdog(&opts)
	defer stopWatchdog()

	d, qsigs := src.Queries()
	tasks := make(chan Batch, 256)
	var (
		mu      sync.Mutex
		results []Pair
		total   Stats
		wg      sync.WaitGroup
	)

	worker := func(id int) {
		defer wg.Done()
		local := newRec(jo, &opts, chain)
		var pairs []Pair
		hook := testPairHook
		for b := range tasks {
			for _, qi := range b.QIs {
				if ctx.Err() != nil {
					break // cancelled: drain the channel without working
				}
				local.Pairs++
				pi := pairIn{q: d[qi], g: b.G, qs: qsigs[qi], gs: b.GS, qi: qi, gi: b.GI}
				jo.beatStart(id)
				p, ok := joinPair(ctx, &pi, &opts, chain, &local)
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
		local.finish(chain)
		mu.Lock()
		results = append(results, pairs...)
		total.add(&local.Stats)
		mu.Unlock()
	}

	wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go worker(i)
	}

	emit := func(b Batch) bool {
		select {
		case tasks <- b:
			return true
		case <-ctx.Done():
			return false
		}
	}
	if jo.sourceSeconds != nil {
		// Candidate-generation latency: the time the source spends producing
		// each batch, excluding the time emit blocks on a full task channel.
		inner := emit
		last := time.Now()
		emit = func(b Batch) bool {
			jo.sourceSeconds.ObserveDuration(time.Since(last))
			ok := inner(b)
			last = time.Now()
			return ok
		}
	}
	var skipped int64
	src.Feed(ctx, &opts, emit,
		func(n int64) {
			skipped += n
			if jo.progress {
				jo.pairsDone.Add(n)
			}
		})
	close(tasks)
	wg.Wait()

	total.Pairs += skipped
	total.CSSPruned += skipped // prescreens are implied by the CSS stage
	total.IndexSkipped += skipped
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

// crossSource pairs every query with every uncertain graph. Both sides'
// filter signatures are precomputed once: every graph participates in |U|
// (resp. |D|) pairs, and the signatures carry everything the bounds would
// otherwise recompute per pair.
type crossSource struct {
	d     []*graph.Graph
	qsigs []*filter.QSig
	u     []*ugraph.Graph
	gsigs []*filter.GSig
	qis   []int // 0..len(d)-1, chunked into batches
}

func (s *crossSource) Queries() ([]*graph.Graph, []*filter.QSig) { return s.d, s.qsigs }

func (s *crossSource) TotalPairs() int64 { return int64(len(s.d)) * int64(len(s.u)) }

func (s *crossSource) Feed(ctx context.Context, _ *Options, emit func(Batch) bool, _ func(int64)) {
	for gi, g := range s.u {
		if ctx.Err() != nil {
			return
		}
		for start := 0; start < len(s.qis); start += sourceChunk {
			end := start + sourceChunk
			if end > len(s.qis) {
				end = len(s.qis)
			}
			if !emit(Batch{GI: gi, G: g, GS: s.gsigs[gi], QIs: s.qis[start:end]}) {
				return
			}
		}
	}
}

// indexSource streams only the pairs surviving the Index's size and label
// prescreens, and builds each uncertain graph's filter signature only when at
// least one candidate survives.
type indexSource struct {
	idx *Index
	u   []*ugraph.Graph
}

func (s *indexSource) Queries() ([]*graph.Graph, []*filter.QSig) { return s.idx.d, s.idx.qsigs }

func (s *indexSource) TotalPairs() int64 { return int64(s.idx.Len()) * int64(len(s.u)) }

func (s *indexSource) Feed(ctx context.Context, opts *Options, emit func(Batch) bool, skip func(int64)) {
	var sc indexScratch // sweep scratch, reused across graphs
	for gi, g := range s.u {
		if ctx.Err() != nil {
			return
		}
		cands := s.idx.candidates(g, opts.Tau, &sc)
		skip(int64(s.idx.Len() - len(cands)))
		if len(cands) == 0 {
			continue
		}
		gs := filter.NewGSig(g)
		for start := 0; start < len(cands); start += sourceChunk {
			end := start + sourceChunk
			if end > len(cands) {
				end = len(cands)
			}
			if !emit(Batch{GI: gi, G: g, GS: gs, QIs: cands[start:end]}) {
				return
			}
		}
	}
}
