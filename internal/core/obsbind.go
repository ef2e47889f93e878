package core

import (
	"sync/atomic"
	"time"

	"simjoin/internal/filter"
	"simjoin/internal/ged"
	"simjoin/internal/graph"
	"simjoin/internal/obs"
	"simjoin/internal/ugraph"
)

// joinObs carries the shared observability state of one join run: registry
// handles for the per-stage and per-GED-call histograms, the span tracer, and
// the live tallies the progress reporter reads. It is the one place a join
// creates instruments; the Stats counters and the per-bound profile reach the
// registry once, at join end (publishStats). Every handle is a nil-safe obs
// instrument, so with observability disabled (Options.Obs, Tracer and Logger
// all nil) recording degenerates to nil checks and the join runs at seed
// speed.
type joinObs struct {
	reg *obs.Registry
	tr  *obs.Tracer
	ev  *obs.EventLog

	// profile gates per-bound wall-clock timing (time.Now around every bound
	// evaluation): on whenever metrics or the event log want the numbers, off
	// — along with its overhead — when observability is fully disabled.
	profile bool

	pruneSeconds  *obs.Histogram
	verifySeconds *obs.Histogram
	sourceSeconds *obs.Histogram
	worldsPerPair *obs.Histogram
	// verifyRung splits verify latency per verdict-ladder rung, indexed by
	// Verdict (VerdictNone unused).
	verifyRung [5]*obs.Histogram
	// gedSeconds and gedStates observe every exact GED call of the verdict
	// ladder (rec.gedCompute, buildRelaxed): its wall time and its A* states
	// expanded.
	gedSeconds *obs.Histogram
	gedStates  *obs.Histogram

	// progress gates the live atomics below; they are only maintained when a
	// Logger and ProgressEvery are configured.
	progress   bool
	pairsDone  atomic.Int64
	candidates atomic.Int64

	// beats holds one pair-start timestamp (UnixNano) per worker, 0 when the
	// worker is between pairs; allocated only when the watchdog is enabled.
	// The watchdog goroutine scans them to spot workers stuck on one pair.
	beats          []atomic.Int64
	watchdogStalls *obs.Counter
}

func newJoinObs(o *Options) *joinObs {
	jo := &joinObs{
		reg:      o.Obs,
		tr:       o.Tracer,
		ev:       o.Events,
		profile:  o.Obs != nil || o.Events != nil,
		progress: o.Logger != nil && o.ProgressEvery > 0,
	}
	if o.Obs != nil {
		jo.pruneSeconds = o.Obs.Histogram("simjoin_prune_seconds", obs.DurationBuckets)
		jo.verifySeconds = o.Obs.Histogram("simjoin_verify_seconds", obs.DurationBuckets)
		jo.sourceSeconds = o.Obs.Histogram("simjoin_source_seconds", obs.DurationBuckets)
		jo.worldsPerPair = o.Obs.Histogram("simjoin_worlds_per_pair", obs.CountBuckets)
		for v := VerdictExact; v <= VerdictUndecided; v++ {
			jo.verifyRung[v] = o.Obs.Histogram(verifyRungMetric(v), obs.DurationBuckets)
		}
		jo.gedSeconds = o.Obs.Histogram("ged_compute_seconds", obs.DurationBuckets)
		jo.gedStates = o.Obs.Histogram("ged_states_expanded", obs.CountBuckets)
		jo.watchdogStalls = o.Obs.Counter("simjoin_watchdog_stalls_total")
	}
	return jo
}

// syncAux publishes the auxiliary instruments' tallies into the registry at
// join end: the tracer's dropped-span count and the event log's
// emitted/dropped counts. Nil-safe throughout.
func (jo *joinObs) syncAux() {
	jo.tr.SyncDroppedCounter(jo.reg)
	jo.ev.SyncCounters(jo.reg)
}

// beatStart marks worker id as having started a pair; beatEnd clears it.
// Both are single atomic stores and no-ops when the watchdog is off.
func (jo *joinObs) beatStart(id int) {
	if jo.beats != nil {
		jo.beats[id].Store(time.Now().UnixNano())
	}
}

func (jo *joinObs) beatEnd(id int) {
	if jo.beats != nil {
		jo.beats[id].Store(0)
	}
}

// startWatchdog launches the stalled-worker monitor when Options.Watchdog is
// positive: every quarter period it scans the worker heartbeats and, for each
// worker stuck on the same pair for longer than the threshold, logs once (via
// Options.Logger) and bumps simjoin_watchdog_stalls_total. It observes only —
// the pair keeps running — so it catches hangs the soft deadline cannot
// interrupt. The returned stop function is safe to call always.
func (jo *joinObs) startWatchdog(o *Options) func() {
	if o.Watchdog <= 0 {
		return func() {}
	}
	jo.beats = make([]atomic.Int64, o.Workers)
	interval := o.Watchdog / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	done := make(chan struct{})
	go func() {
		flagged := make([]bool, len(jo.beats))
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			now := time.Now().UnixNano()
			for i := range jo.beats {
				b := jo.beats[i].Load()
				if b > 0 && now-b > int64(o.Watchdog) {
					if !flagged[i] {
						flagged[i] = true
						jo.watchdogStalls.Inc()
						if o.Logger != nil {
							o.Logger.Logf("simjoin: watchdog: worker %d stalled on one pair for %v",
								i, time.Duration(now-b).Round(time.Millisecond))
						}
					}
				} else {
					flagged[i] = false
				}
			}
		}
	}()
	return func() { close(done) }
}

// startProgress launches the periodic progress reporter for a join over
// total pairs; the returned stop function is safe to call always.
func (jo *joinObs) startProgress(o *Options, total int64) func() {
	if !jo.progress {
		return func() {}
	}
	return obs.StartProgress(o.Logger, o.ProgressEvery, total, func() (int64, int64) {
		return jo.pairsDone.Load(), jo.candidates.Load()
	})
}

// rec is the per-worker recording context: the paper-facing Stats tallies
// (plain fields, merged once per worker via Stats.add) plus the run's shared
// observability handles and the worker's reusable scratch buffers. A rec must
// not be shared between goroutines.
type rec struct {
	Stats
	jo *joinObs

	// fsc is the filter chain's scratch (the λV matching buffers and the
	// per-pair group cache of the grouped bound); pv caches the
	// world-invariant CSS constants of the pair under verification; ws holds
	// the possible-world enumeration buffers; rl the pair's relaxed mapping
	// lists; worlds the shared worlds of the graph in hand (worlds.go);
	// wside a world's GED side, prepared afresh for every GED (gedCompute).
	// mbuf is the buffer the next GED writes its mapping into, and mbest
	// holds the pair's best mapping so far (takeMapping swaps the two).
	fsc    filter.Scratch
	pv     filter.PairVerifier
	ws     ugraph.WorldScratch
	rl     relaxedLists
	worlds worldCache
	wside  ged.Prepared
	mbuf   ged.Mapping
	mbest  ged.Mapping

	// pctx is the per-worker PairContext, reused across pairs: building it
	// fresh inside prunephase would heap-allocate one per pair (it escapes
	// through the Bound interface call).
	pctx filter.PairContext

	// prof is the worker's per-chain-position profile shard (see profile.go),
	// folded into Stats.BoundProfile by finish(); indexed like the chain.
	prof []boundShard

	// eb is the worker's event buffer (nil when no event log is configured);
	// ev is the reusable sampled-pair record, evSampled marks the pair in
	// flight as sampled, and evVerdict carries the verdict-ladder rung that
	// decided it (also indexes the verifyRung histograms).
	eb        *obs.EventBuffer
	ev        obs.PairEvent
	evSampled bool
	evVerdict Verdict
}

// gedCompute runs one threshold-bounded exact GED of the pair's query (its
// prepared side) against the world w for a verification rung and books it
// (bookGED); the rungs treat any error as an exhausted budget. The result's
// Mapping is the worker's scratch (mbuf), overwritten by the next call
// unless the rung keeps it with takeMapping.
func (st *rec) gedCompute(pi *pairIn, w *graph.Graph, opts *Options) (ged.Result, error) {
	t0 := st.gedStart()
	st.wside.Reset(w)
	res, err := ged.ComputePrepared(pi.qp, &st.wside, ged.Options{Threshold: opts.Tau, MaxStates: opts.VerifyMaxStates}, st.mbuf)
	if res.Mapping != nil {
		st.mbuf = res.Mapping // keep a grown buffer
	}
	st.bookGED(t0, res.States, err != nil)
	return res, err
}

// takeMapping keeps m, the mapping of the rung's last gedCompute, as the
// pair's best: the next GED writes into the previous best's buffer instead.
// A rung clones its best mapping once, when it accepts the pair.
func (st *rec) takeMapping(m ged.Mapping) ged.Mapping {
	st.mbuf, st.mbest = st.mbest, m
	return m
}

// statsCounterSpec is the single source of truth tying every Stats counter
// field to its registry metric name. Stats.add sums through it and
// publishStats writes through it, so the registry is written from Stats only;
// a test compares the published snapshot with Stats, and a reflection test
// asserts the table covers every counter field of Stats (the
// non-counter Cancelled flag and Quarantined log are excluded —
// QuarantinedPairs carries their count — and PrunedBy is a view of
// BoundProfile, published per (bound, position) by publishBoundProfile).
var statsCounterSpec = []struct {
	name string
	fld  func(*Stats) *int64
}{
	{"simjoin_pairs_total", func(s *Stats) *int64 { return &s.Pairs }},
	{"simjoin_css_pruned_total", func(s *Stats) *int64 { return &s.CSSPruned }},
	{"simjoin_prob_pruned_total", func(s *Stats) *int64 { return &s.ProbPruned }},
	{"simjoin_candidates_total", func(s *Stats) *int64 { return &s.Candidates }},
	{"simjoin_results_total", func(s *Stats) *int64 { return &s.Results }},
	{"simjoin_skipped_pairs_total", func(s *Stats) *int64 { return &s.SkippedPairs }},
	{"simjoin_worlds_checked_total", func(s *Stats) *int64 { return &s.WorldsChecked }},
	{"simjoin_ged_calls_total", func(s *Stats) *int64 { return &s.GEDCalls }},
	{"simjoin_ged_budget_hits_total", func(s *Stats) *int64 { return &s.GEDBudgetHits }},
	{"simjoin_ged_states_expanded_total", func(s *Stats) *int64 { return &s.GEDStatesExpanded }},
	{"simjoin_relaxed_pairs_total", func(s *Stats) *int64 { return &s.RelaxedPairs }},
	{"simjoin_relaxed_mappings_total", func(s *Stats) *int64 { return &s.RelaxedMappings }},
	{"simjoin_relaxed_fallbacks_total", func(s *Stats) *int64 { return &s.RelaxedFallbacks }},
	{"simjoin_groups_built_total", func(s *Stats) *int64 { return &s.GroupsBuilt }},
	{"simjoin_groups_pruned_total", func(s *Stats) *int64 { return &s.GroupsPruned }},
	{"simjoin_early_accepts_total", func(s *Stats) *int64 { return &s.EarlyAccepts }},
	{"simjoin_early_rejects_total", func(s *Stats) *int64 { return &s.EarlyRejects }},
	{"simjoin_index_skipped_total", func(s *Stats) *int64 { return &s.IndexSkipped }},
	{"simjoin_sampled_pairs_total", func(s *Stats) *int64 { return &s.SampledPairs }},
	{"simjoin_exact_pairs_total", func(s *Stats) *int64 { return &s.ExactPairs }},
	{"simjoin_approx_pairs_total", func(s *Stats) *int64 { return &s.ApproxPairs }},
	{"simjoin_budget_fallbacks_total", func(s *Stats) *int64 { return &s.BudgetFallbacks }},
	{"simjoin_deadline_hits_total", func(s *Stats) *int64 { return &s.DeadlineHits }},
	{"simjoin_quarantined_pairs_total", func(s *Stats) *int64 { return &s.QuarantinedPairs }},
}

// statsDurationSpec does the same for the duration fields; the registry
// counters accumulate nanoseconds.
var statsDurationSpec = []struct {
	name string
	fld  func(*Stats) *time.Duration
}{
	{"simjoin_prune_time_nanoseconds_total", func(s *Stats) *time.Duration { return &s.PruneTime }},
	{"simjoin_verify_time_nanoseconds_total", func(s *Stats) *time.Duration { return &s.VerifyTime }},
}

// publishStats accumulates a finished join's Stats into the registry.
// Counters are cumulative across joins sharing a registry; per-run numbers
// come from the returned Stats.
func publishStats(reg *obs.Registry, s *Stats) {
	if reg == nil {
		return
	}
	for _, c := range statsCounterSpec {
		reg.Counter(c.name).Add(*c.fld(s))
	}
	for _, c := range statsDurationSpec {
		reg.Counter(c.name).Add(int64(*c.fld(s)))
	}
	publishBoundProfile(reg, s.BoundProfile)
}
