// Package core implements the paper's primary contribution: SimJ, the
// similarity join between a set D of certain graphs (SPARQL queries) and a
// set U of uncertain graphs (natural language questions), under the
// similarity-probability predicate SimPτ(q, g) ≥ α of Def. 7.
//
// The join follows the filtering-and-refinement framework of §3.3:
//
//   - Structural pruning with the CSS-based lower bound (Theorem 3).
//   - Probabilistic pruning with the similarity-probability upper bound
//     (Theorem 4), optionally tightened by dividing possible worlds into
//     cost-model-selected groups (§6.2, Algorithm 2) — "SimJ+opt".
//   - Exact verification by possible-world enumeration with per-world CSS
//     pre-checks and early accept/reject on the accumulated probability mass.
package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"simjoin/internal/fault"
	"simjoin/internal/filter"
	"simjoin/internal/ged"
	"simjoin/internal/graph"
	"simjoin/internal/obs"
	"simjoin/internal/ugraph"
)

// Mode selects which pruning stages run before verification.
type Mode int

const (
	// ModeCSSOnly applies only the structural CSS-based pruning.
	ModeCSSOnly Mode = iota
	// ModeSimJ applies CSS-based and probabilistic pruning (Algorithm 1).
	ModeSimJ
	// ModeSimJOpt additionally partitions possible worlds into groups for
	// tighter probabilistic bounds (Algorithm 2).
	ModeSimJOpt
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeCSSOnly:
		return "CSS only"
	case ModeSimJ:
		return "SimJ"
	case ModeSimJOpt:
		return "SimJ+opt"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a SimJ run. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// Tau is the graph edit distance threshold τ.
	Tau int
	// Alpha is the similarity probability threshold α ∈ (0, 1].
	Alpha float64
	// Mode selects the pruning pipeline.
	Mode Mode
	// GroupCount is the possible-world group budget GN for ModeSimJOpt.
	GroupCount int
	// Workers is the number of parallel join workers; 0 means GOMAXPROCS.
	Workers int
	// MaxWorlds caps the possible worlds enumerated per pair during
	// verification; pairs beyond it are skipped and counted in
	// Stats.SkippedPairs. 0 means the default of 1<<20.
	MaxWorlds int64
	// VerifyMaxStates caps the A* states per GED verification call; worlds
	// exceeding it count as dissimilar and are tallied in
	// Stats.GEDBudgetHits. 0 means the default of 4e6.
	VerifyMaxStates int
	// DisableEarlyExit turns off the accept/reject short-circuit during
	// verification (ablation A2).
	DisableEarlyExit bool
	// SampleWorlds is the Monte Carlo sample size of the verdict ladder's
	// sampling rung, used when a pair's possible-world count exceeds
	// MaxWorlds (or exact enumeration aborts on a budget or deadline).
	// Accept/reject decisions carry a Hoeffding confidence margin (δ=0.01);
	// pairs inside the margin fall through to the next rung. 0 means the
	// default of 512; negative disables the sampling rung.
	SampleWorlds int
	// Fallback selects how far the verdict ladder degrades over-budget
	// pairs; the default FallbackFull tries sampling and then approximate
	// bounds, FallbackNone restores the legacy skip-on-cliff behaviour.
	Fallback Fallback
	// PairDeadline is the soft per-pair time budget: a pair whose exact
	// enumeration or sampling outlives it degrades to the next ladder rung
	// (counted in Stats.DeadlineHits). 0 disables per-pair deadlines.
	PairDeadline time.Duration
	// Watchdog, when positive, launches a monitor that logs (via Logger) and
	// counts workers stuck on a single pair for longer than this. It only
	// observes — the pair keeps running — so it is a diagnostic for hangs
	// that the soft deadline cannot interrupt (e.g. a wedged GED call).
	Watchdog time.Duration
	// KeepMappings records the best-world vertex mapping on every result
	// pair (needed for template generation; costs one extra exact GED per
	// result).
	KeepMappings bool

	// FilterChain, when non-empty, replaces the Mode-derived pruning stages
	// with an explicit ordered bound chain (see filter.ParseChain and the
	// filter registry): bounds run left to right, each may prune the pair,
	// and survivors enter the verdict ladder unchanged. Mode is ignored for
	// pruning when a chain is set (it still picks the default chain when the
	// chain is empty). Every bound is sound, so any order admits the same
	// survivors; a measured order comes from a profiled run's
	// EffectiveCostOrder (simjoin -explain). Per-bound prune counts land in
	// Stats.PrunedBy.
	FilterChain []filter.Bound

	// Obs, when non-nil, receives live metrics for the run: per-stage
	// latency histograms, per-filter prune counters, GED engine metrics,
	// and — on completion — the cumulative Stats counters (see
	// StatsFromSnapshot). Nil disables metric collection at no cost.
	Obs *obs.Registry
	// Tracer, when non-nil, records prune/verify spans per pair into its
	// ring buffer (exportable as a Chrome trace).
	Tracer *obs.Tracer
	// Events, when non-nil, receives the sampled pair-decision event log: one
	// JSONL record per sampled pair carrying the pair ids, every bound's
	// outcome and duration, the verdict-ladder path, and the pair's work
	// counters (see obs.NewEventLog and DESIGN.md §12). Setting Events also
	// enables per-bound timing even when Obs is nil.
	Events *obs.EventLog
	// Logger and ProgressEvery enable the periodic progress reporter: every
	// ProgressEvery, Logger receives pairs done/total, candidate ratio and
	// ETA. Both must be set for reports to be emitted.
	Logger        obs.Logger
	ProgressEvery time.Duration
}

// DefaultOptions returns the paper's default configuration: τ=1, α=0.9,
// SimJ+opt with 10 groups.
func DefaultOptions() Options {
	return Options{
		Tau:          1,
		Alpha:        0.9,
		Mode:         ModeSimJOpt,
		GroupCount:   10,
		KeepMappings: true,
	}
}

func (o *Options) normalise() error {
	if o.Tau < 0 {
		return fmt.Errorf("core: negative tau %d", o.Tau)
	}
	if o.Alpha <= 0 || o.Alpha > 1 {
		return fmt.Errorf("core: alpha %v outside (0,1]", o.Alpha)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.GroupCount <= 0 {
		o.GroupCount = 1
	}
	if o.MaxWorlds <= 0 {
		o.MaxWorlds = 1 << 20
	}
	if o.VerifyMaxStates <= 0 {
		o.VerifyMaxStates = 4_000_000
	}
	switch {
	case o.SampleWorlds == 0:
		o.SampleWorlds = 512
	case o.SampleWorlds < 0:
		o.SampleWorlds = 0
	}
	return nil
}

// chain resolves the pruning pipeline: Options.FilterChain verbatim when set,
// otherwise the Mode's default stage order from the filter registry —
// Algorithm 1 is [css, prob], Algorithm 2 is [css, group], and ModeCSSOnly
// is [css].
func (o *Options) chain() ([]filter.Bound, error) {
	if len(o.FilterChain) > 0 {
		for i, b := range o.FilterChain {
			if b == nil {
				return nil, fmt.Errorf("core: FilterChain[%d] is nil", i)
			}
		}
		return o.FilterChain, nil
	}
	switch o.Mode {
	case ModeSimJ:
		return defaultChain("css", "prob"), nil
	case ModeSimJOpt:
		return defaultChain("css", "group"), nil
	default: // ModeCSSOnly and unknown modes: structural pruning only
		return defaultChain("css"), nil
	}
}

func defaultChain(names ...string) []filter.Bound {
	out := make([]filter.Bound, len(names))
	for i, n := range names {
		out[i] = filter.MustBound(n)
	}
	return out
}

// Pair is one join result: SPARQL query graph q = D[Q] matched uncertain
// question graph g = U[G] with SimPτ(q,g) = SimP ≥ α.
type Pair struct {
	Q, G     int
	SimP     float64
	Distance int          // smallest ged(q, pw) among satisfying worlds
	World    *graph.Graph // a satisfying world achieving Distance
	Mapping  ged.Mapping  // q -> World vertex mapping (when KeepMappings)
	// Verdict labels the rung of the verification ladder that decided the
	// pair, i.e. whether SimP is exact, a sampling estimate, or a certified
	// lower bound.
	Verdict Verdict
	// CI is the Hoeffding confidence half-width a VerdictSampled decision
	// cleared (in probability-mass units); 0 for other verdicts.
	CI float64
}

// Stats aggregates join diagnostics; Fig. 11–14 are printed from it.
type Stats struct {
	Pairs      int64 // |D| × |U|
	CSSPruned  int64 // pairs removed by Theorem 3
	ProbPruned int64 // pairs removed by Theorem 4 / grouped bounds
	Candidates int64 // pairs entering verification
	Results    int64 // pairs reported
	// SkippedPairs counts pairs that ended VerdictUndecided: every rung of
	// the verification ladder the Fallback policy allows failed to decide
	// them (with FallbackNone this is the legacy budget cliff). Such pairs
	// still count in Candidates — they entered verification — and the worlds
	// examined before giving up stay in WorldsChecked (exactly MaxWorlds+1
	// for a capped FallbackNone pair, counting the world that tripped it),
	// so CSSPruned + ProbPruned + Candidates == Pairs always holds.
	SkippedPairs int64
	// WorldsChecked counts every possible world examined during verification,
	// including the partial enumerations of pairs that ended in SkippedPairs.
	WorldsChecked int64
	GEDCalls      int64 // exact GED verifications run
	GEDBudgetHits int64 // GED calls aborted by VerifyMaxStates
	// GEDStatesExpanded sums the A* search states expanded across all exact
	// GED calls, including aborted ones — the join's verification effort in
	// engine units, independent of wall clock.
	GEDStatesExpanded int64
	PruneTime         time.Duration
	VerifyTime        time.Duration
	GroupsBuilt       int64 // possible-world groups constructed (SimJ+opt)
	GroupsPruned      int64 // groups removed by their CSS bound
	// PrunedBy breaks the pruned pairs down by the filter-chain bound that
	// eliminated each one, under the bounds' registry names: BoundProfile's
	// prunes folded by name. Summed over the bounds it equals CSSPruned +
	// ProbPruned minus IndexSkipped (pairs the index prescreens of Join and
	// JoinIndexed removed never reach a bound). Nil when nothing was pruned.
	PrunedBy map[string]int64 `json:",omitempty"`
	// BoundProfile is the per-bound cost/selectivity profile in chain order:
	// one entry per chain position with the bound's evaluation count, prune
	// count and (when profiling timing was on) accumulated evaluation
	// nanoseconds. See BoundCost and WriteExplain (profile.go). Nil when the
	// join ran no bounds.
	BoundProfile []BoundCost `json:",omitempty"`
	EarlyAccepts int64       // verifications stopped early at ≥ α
	EarlyRejects int64       // verifications stopped early at < α
	// IndexSkipped counts pairs eliminated by the index's size and label
	// prescreens before the filter chain — the feed of Join and JoinIndexed;
	// 0 for the cross-product and stream sources. They are also counted in
	// CSSPruned: the prescreens are implied by the CSS bound.
	IndexSkipped int64
	SampledPairs int64 // pairs decided by the Monte Carlo sampling rung
	ExactPairs   int64 // pairs decided by exact possible-world enumeration
	ApproxPairs  int64 // pairs decided with approximate-bound assistance
	// BudgetFallbacks counts pairs that left the exact enumeration path
	// (MaxWorlds blown, pre-screened as over budget, or deadline expired)
	// and were handed to the ladder's fallback rungs.
	BudgetFallbacks int64
	DeadlineHits    int64 // per-pair soft deadline expiries
	// QuarantinedPairs counts pairs whose processing panicked; the panics
	// are contained per pair and documented in Quarantined.
	QuarantinedPairs int64
	// Cancelled reports that the run was truncated by context cancellation:
	// counters cover only the pairs processed before the cut.
	Cancelled bool
	// Quarantined holds one record per quarantined pair, sorted by (Q, G).
	Quarantined []QuarantineRecord
}

// CandidateRatio returns |candidates| / (|D|·|U|), the y-axis of
// Figs. 11b–14b.
func (s *Stats) CandidateRatio() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return float64(s.Candidates) / float64(s.Pairs)
}

// ResultRatio returns |results| / (|D|·|U|) ("Real" in the figures).
func (s *Stats) ResultRatio() float64 {
	if s.Pairs == 0 {
		return 0
	}
	return float64(s.Results) / float64(s.Pairs)
}

func (s *Stats) add(o *Stats) {
	s.Pairs += o.Pairs
	s.CSSPruned += o.CSSPruned
	s.ProbPruned += o.ProbPruned
	s.Candidates += o.Candidates
	s.Results += o.Results
	s.SkippedPairs += o.SkippedPairs
	s.WorldsChecked += o.WorldsChecked
	s.GEDCalls += o.GEDCalls
	s.GEDBudgetHits += o.GEDBudgetHits
	s.GEDStatesExpanded += o.GEDStatesExpanded
	s.PruneTime += o.PruneTime
	s.VerifyTime += o.VerifyTime
	s.GroupsBuilt += o.GroupsBuilt
	s.GroupsPruned += o.GroupsPruned
	if len(o.PrunedBy) > 0 {
		if s.PrunedBy == nil {
			s.PrunedBy = make(map[string]int64, len(o.PrunedBy))
		}
		for k, v := range o.PrunedBy {
			s.PrunedBy[k] += v
		}
	}
	if len(o.BoundProfile) > 0 {
		s.BoundProfile = mergeBoundProfile(s.BoundProfile, o.BoundProfile)
	}
	s.EarlyAccepts += o.EarlyAccepts
	s.EarlyRejects += o.EarlyRejects
	s.IndexSkipped += o.IndexSkipped
	s.SampledPairs += o.SampledPairs
	s.ExactPairs += o.ExactPairs
	s.ApproxPairs += o.ApproxPairs
	s.BudgetFallbacks += o.BudgetFallbacks
	s.DeadlineHits += o.DeadlineHits
	s.QuarantinedPairs += o.QuarantinedPairs
	s.Cancelled = s.Cancelled || o.Cancelled
	s.Quarantined = append(s.Quarantined, o.Quarantined...)
}

// Merge folds another join's Stats into s (e.g. the per-request Stats of a
// resident service, or repeated runs of one benchmark). Merge is
// associative and commutative up to representation: counters are summed, the
// PrunedBy maps added key-wise, BoundProfile entries folded by (position,
// bound), the Cancelled flags ORed, and the quarantine log concatenated and
// re-sorted by (Q, G) — so folding several joins' Stats in any order yields
// the same aggregate.
func (s *Stats) Merge(o *Stats) {
	s.add(o)
	sort.Slice(s.Quarantined, func(i, j int) bool {
		if s.Quarantined[i].Q != s.Quarantined[j].Q {
			return s.Quarantined[i].Q < s.Quarantined[j].Q
		}
		return s.Quarantined[i].G < s.Quarantined[j].G
	})
}

// Join performs the similarity join of Def. 7 between the certain graphs D
// and the uncertain graphs U, returning all pairs with SimPτ ≥ α sorted by
// (Q, G). It indexes D for this one call (see JoinContext); JoinIndexed
// reuses an index across calls.
func Join(d []*graph.Graph, u []*ugraph.Graph, opts Options) ([]Pair, Stats, error) {
	return JoinContext(context.Background(), d, u, opts)
}

// JoinContext is Join with cancellation: when ctx is cancelled the workers
// stop picking up new pairs, in-flight pairs finish, and ctx.Err() is
// returned along with the Stats accumulated so far (results are dropped —
// a partial join result would be silently incomplete). It is a thin wrapper
// over the pipeline engine (see engine.go) with a one-shot Index over D as
// the candidate source: the index's size and label prescreens are implied by
// the CSS bound, so the answer set is the cross product's, while the pairs
// they rule out never reach the filter chain (Stats.IndexSkipped). Callers
// that need every pair shown to the chain use
// JoinWith(ctx, NewCrossSource(d, u), opts).
func JoinContext(ctx context.Context, d []*graph.Graph, u []*ugraph.Graph, opts Options) ([]Pair, Stats, error) {
	return joinEngine(ctx, BuildIndex(d).Source(u), opts)
}

// finishStats orders the quarantine log deterministically, publishes the
// run's counters to the registry, and syncs the auxiliary instruments
// (tracer drop count, event-log tallies); every join driver calls it once
// after its workers drain.
func finishStats(total *Stats, jo *joinObs) {
	sort.Slice(total.Quarantined, func(i, j int) bool {
		if total.Quarantined[i].Q != total.Quarantined[j].Q {
			return total.Quarantined[i].Q < total.Quarantined[j].Q
		}
		return total.Quarantined[i].G < total.Quarantined[j].G
	})
	publishStats(jo.reg, total)
	jo.syncAux()
}

// pairIn bundles one (q, g) pair with its precomputed filter signatures and
// dataset indices. The join drivers assemble it once per pair so the pipeline
// below never rebuilds signatures inside the pair loop.
type pairIn struct {
	q      *graph.Graph
	g      *ugraph.Graph
	qs     *filter.QSig
	gs     *filter.GSig
	qi, gi int
}

// joinPair runs the filter-and-refine pipeline of Algorithm 1 on one pair:
// the configured bound chain, then — for survivors — the verdict ladder.
//
// Panics are contained here: a panic anywhere in the pair's pruning or
// verification quarantines the pair (recorded with its stack in
// Stats.Quarantined) instead of crashing the join; the worker's scratch
// buffers are reset at the start of every pair, so reuse after a contained
// panic is safe. When Options.PairDeadline is set, verification runs under a
// pair-scoped context deadline.
func joinPair(ctx context.Context, pi *pairIn, opts *Options, chain []filter.Bound, st *rec) (p Pair, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			st.QuarantinedPairs++
			st.Quarantined = append(st.Quarantined, QuarantineRecord{
				Q:      pi.qi,
				G:      pi.gi,
				Reason: fmt.Sprint(r),
				Stack:  string(debug.Stack()),
			})
			p, ok = Pair{}, false
		}
	}()
	if fault.Enabled() {
		// "core.pair" faults a whole pair; injected errors become panics so
		// the quarantine path above is exercised end to end.
		if err := fault.HitPair("core.pair", fault.PairKey(pi.qi, pi.gi)); err != nil {
			panic(err)
		}
	}

	// Sampling is decided before any work so the event can cover the whole
	// decision path; baselines turn the worker-cumulative counters into
	// per-pair deltas at emission time.
	st.evSampled = st.jo.ev.Sample()
	var baseWorlds, baseGEDCalls, baseGEDStates int64
	if st.evSampled {
		st.ev.Bounds = st.ev.Bounds[:0]
		baseWorlds, baseGEDCalls, baseGEDStates = st.WorldsChecked, st.GEDCalls, st.GEDStatesExpanded
	}

	pruneStart := time.Now()
	groups, prunedBy := prunephase(pi, opts, chain, st)
	pruneDur := time.Since(pruneStart)
	st.PruneTime += pruneDur
	st.jo.pruneSeconds.ObserveDuration(pruneDur)
	st.jo.tr.Record("prune", pruneStart, pruneDur)
	if prunedBy != "" {
		if st.evSampled {
			st.emitEvent(pi, Pair{}, false, "pruned", prunedBy,
				baseWorlds, baseGEDCalls, baseGEDStates, int64(pruneDur), 0)
		}
		return Pair{}, false
	}
	st.Candidates++
	if st.jo.progress {
		st.jo.candidates.Add(1)
	}

	pairCtx := ctx
	if opts.PairDeadline > 0 {
		var cancel context.CancelFunc
		pairCtx, cancel = context.WithTimeout(ctx, opts.PairDeadline)
		defer cancel()
	}
	verifyStart := time.Now()
	st.evVerdict = VerdictUndecided
	p, ok = verify(pairCtx, ctx, pi, groups, opts, st)
	verifyDur := time.Since(verifyStart)
	st.VerifyTime += verifyDur
	st.jo.verifySeconds.ObserveDuration(verifyDur)
	st.jo.verifyRung[st.evVerdict].ObserveDuration(verifyDur)
	st.jo.tr.Record("verify", verifyStart, verifyDur)
	if st.evSampled {
		st.emitEvent(pi, p, ok, st.evVerdict.String(), "",
			baseWorlds, baseGEDCalls, baseGEDStates, int64(pruneDur), int64(verifyDur))
	}
	return p, ok
}

// emitEvent fills the worker's reusable PairEvent from the pair's deltas and
// hands it to the event buffer. The Bounds slice was populated in-place by
// prunephase; everything else is computed here so the hot path carries no
// event bookkeeping for unsampled pairs.
func (st *rec) emitEvent(pi *pairIn, p Pair, ok bool, verdict, prunedBy string,
	baseWorlds, baseGEDCalls, baseGEDStates, pruneNs, verifyNs int64) {
	ev := &st.ev
	ev.Q, ev.G = pi.qi, pi.gi
	ev.Verdict = verdict
	ev.PrunedBy = prunedBy
	ev.Result = ok
	ev.SimP = p.SimP
	ev.Worlds = st.WorldsChecked - baseWorlds
	ev.GEDCalls = st.GEDCalls - baseGEDCalls
	ev.GEDStates = st.GEDStatesExpanded - baseGEDStates
	ev.PruneNs = pruneNs
	ev.VerifyNs = verifyNs
	ev.TotalNs = pruneNs + verifyNs
	st.eb.Emit(ev)
}

// prunephase walks the pair through the bound chain left to right and stops
// at the first bound that prunes it. It returns the possible-world groups to
// verify (nil means verify the whole graph as one group; a kept group bound
// replaces them) and the name of the bound that pruned the pair ("" when the
// pair survived). Every evaluation lands in the worker's profile shard, from
// which rec.finish derives PrunedBy, CSSPruned and ProbPruned.
func prunephase(pi *pairIn, opts *Options, chain []filter.Bound, st *rec) ([]ugraph.Group, string) {
	st.pctx = filter.PairContext{
		QS:         pi.qs,
		GS:         pi.gs,
		Tau:        opts.Tau,
		Alpha:      opts.Alpha,
		GroupCount: opts.GroupCount,
		Scratch:    &st.fsc,
	}
	var groups []ugraph.Group
	for i, b := range chain {
		out := st.applyBound(b, i)
		if out.Groups != nil {
			groups = out.Groups
		}
		if out.Pruned {
			return nil, b.Name()
		}
	}
	return groups, ""
}

// applyBound runs one bound on the pair in st.pctx and books the evaluation
// into the worker's profile shard (at chain position i), the filter metrics,
// and — when the pair is event-sampled — the event record. Evaluations are
// timed only when profiling is on; untimed ones book zero nanoseconds.
func (st *rec) applyBound(b filter.Bound, i int) filter.Outcome {
	if !st.jo.profile {
		out := b.Apply(&st.pctx)
		st.jo.filt.RecordBound(b.Name(), out)
		st.bookOutcome(out, i, 0)
		return out
	}
	t0 := time.Now()
	out := b.Apply(&st.pctx)
	d := time.Since(t0)
	st.jo.filt.RecordBoundTimed(b.Name(), out, d)
	if st.evSampled {
		st.ev.Bounds = append(st.ev.Bounds, obs.BoundObs{Bound: b.Name(), Ns: int64(d), Pruned: out.Pruned})
	}
	st.bookOutcome(out, i, int64(d))
	return out
}

// bookOutcome lands one evaluation in the worker's profile shard and the
// group tallies.
func (st *rec) bookOutcome(out filter.Outcome, i int, nanos int64) {
	if i < len(st.prof) {
		st.prof[i].evals++
		st.prof[i].nanos += nanos
		if out.Pruned {
			st.prof[i].prunes++
		}
	}
	st.GroupsBuilt += out.GroupsBuilt
	st.GroupsPruned += out.GroupsCSSPruned
}

// exactOutcome reports how the exact enumeration rung ended.
type exactOutcome int

const (
	exactDecided   exactOutcome = iota // accept/reject settled within budget
	exactBudget                        // MaxWorlds blown (or a budget fault injected)
	exactDeadline                      // the pair's soft deadline expired
	exactCancelled                     // the whole join was cancelled
)

// ctxCheckEvery is how many worlds (resp. samples) the verification rungs
// enumerate between context polls; one Err() call per 64 worlds keeps the
// soft-deadline overhead invisible next to a GED computation.
const ctxCheckEvery = 64

// verify decides SimPτ(q, g) ≥ α through the verdict ladder:
//
//  1. Exact possible-world enumeration (grouped when SimJ+opt kept groups),
//     with per-world CSS pre-checks and early accept/reject on accumulated
//     mass — unless the world count is already over MaxWorlds and a fallback
//     exists, in which case the rung is skipped outright.
//  2. Monte Carlo sampling (sampleVerify) when rung 1 ran out of worlds,
//     states or time.
//  3. Approximate bounds over the most probable worlds (approxVerify), under
//     FallbackFull only.
//
// Pairs no rung decides are counted in Stats.SkippedPairs (VerdictUndecided).
// pairCtx carries the per-pair soft deadline, joinCtx the join-wide
// cancellation; the distinction decides whether an interrupted rung degrades
// (deadline) or aborts (cancelled).
func verify(pairCtx, joinCtx context.Context, pi *pairIn, groups []ugraph.Group, opts *Options, st *rec) (Pair, bool) {
	canFallback := opts.Fallback != FallbackNone
	overBudget := pi.gs.WorldsF > float64(opts.MaxWorlds)
	if canFallback && opts.SampleWorlds > 0 && overBudget {
		// The world count alone proves exact enumeration cannot finish;
		// skip straight to the sampling rung.
		st.BudgetFallbacks++
	} else {
		p, ok, out, assisted := verifyExact(pairCtx, joinCtx, pi, groups, opts, st)
		switch out {
		case exactDecided:
			if assisted {
				st.ApproxPairs++
				p.Verdict = VerdictApproxBound
			} else {
				st.ExactPairs++
				p.Verdict = VerdictExact
			}
			st.evVerdict = p.Verdict
			return p, ok
		case exactCancelled:
			st.SkippedPairs++
			return Pair{}, false
		case exactDeadline:
			st.DeadlineHits++
			st.BudgetFallbacks++
		case exactBudget:
			st.BudgetFallbacks++
		}
		if !canFallback {
			st.SkippedPairs++ // legacy cliff: over budget means skipped
			return Pair{}, false
		}
	}
	if opts.SampleWorlds > 0 {
		p, ok, out := sampleVerify(pairCtx, joinCtx, pi, opts, st)
		switch out {
		case sampleDecided:
			st.SampledPairs++
			p.Verdict = VerdictSampled
			st.evVerdict = VerdictSampled
			return p, ok
		case sampleCancelled:
			st.SkippedPairs++
			return Pair{}, false
		case sampleDeadline:
			st.DeadlineHits++
		}
		// sampleUndecided / sampleDeadline: fall through to the last rung.
	}
	if opts.Fallback == FallbackFull {
		// The approximate rung is cheap and strictly bounded, so it runs even
		// after a deadline hit: better a late certified bound than no verdict.
		if p, ok, decided := approxVerify(pi, opts, st); decided {
			st.ApproxPairs++
			st.evVerdict = VerdictApproxBound
			return p, ok
		}
	}
	st.SkippedPairs++
	return Pair{}, false
}

// verifyExact computes the exact SimPτ(q, g) by enumerating possible worlds,
// with a per-world CSS pre-check and — unless disabled — early accept/reject
// on the accumulated probability mass. The per-world CSS bound runs through
// the worker's PairVerifier: every world of g (and of its conditioned groups)
// shares g's structure, so only the λV matching is recomputed per world.
//
// assisted reports that at least one world's exact GED exhausted
// VerifyMaxStates and the decision leaned on the beam-search upper bound
// instead (under FallbackFull) or on treating the world as dissimilar
// (legacy): either way the verdict is no longer exact.
func verifyExact(pairCtx, joinCtx context.Context, pi *pairIn, groups []ugraph.Group, opts *Options, st *rec) (Pair, bool, exactOutcome, bool) {
	q, qi, gi := pi.q, pi.qi, pi.gi
	if groups == nil {
		groups = []ugraph.Group{{G: pi.g, Mass: pi.gs.Mass}}
	}
	// High-mass groups first: the early accept/reject thresholds are reached
	// sooner when probable worlds are enumerated early.
	sort.Slice(groups, func(i, j int) bool { return groups[i].Mass > groups[j].Mass })
	totalMass := 0.0
	for _, gr := range groups {
		totalMass += gr.Mass
	}
	worldBudget := opts.MaxWorlds
	faultArmed := fault.Enabled()
	var faultKey uint64
	if faultArmed {
		faultKey = fault.PairKey(qi, gi)
	}

	simP := 0.0
	remaining := totalMass
	// Accept and reject against α up to the rounding of the mass sums (see
	// filter.MassSlack): at α = 1 an exact SimP of 1 can sum a few ulps short.
	alphaLo := opts.Alpha - filter.MassSlack
	best := Pair{Q: qi, G: gi, Distance: opts.Tau + 1}
	outcome := exactDecided
	decided := false
	accepted := false
	assisted := false
	pairWorlds := int64(0)

	// The context is polled every ctxCheckEvery worlds, so short enumerations
	// would outrun an already-expired deadline without this entry check.
	if pairCtx.Err() != nil {
		if joinCtx.Err() != nil {
			return Pair{}, false, exactCancelled, false
		}
		return Pair{}, false, exactDeadline, false
	}

	st.pv.Reset(pi.qs, pi.gs)
	for _, gr := range groups {
		if decided || outcome != exactDecided {
			break
		}
		gr.G.WorldsScratch(&st.ws, func(w *graph.Graph, p float64) bool {
			st.WorldsChecked++
			pairWorlds++
			worldBudget--
			if worldBudget < 0 {
				outcome = exactBudget
				return false
			}
			if pairWorlds%ctxCheckEvery == 0 && pairCtx.Err() != nil {
				if joinCtx.Err() != nil {
					outcome = exactCancelled
				} else {
					outcome = exactDeadline
				}
				return false
			}
			if faultArmed {
				// "core.verify.world" simulates a mid-enumeration budget
				// cliff: any injection here aborts the rung as over budget.
				if err := fault.HitPair("core.verify.world", faultKey); err != nil {
					outcome = exactBudget
					return false
				}
			}
			remaining -= p
			if st.pv.WorldLowerBound(w) <= opts.Tau {
				st.GEDCalls++
				res, err := ged.Compute(q, w, ged.Options{Threshold: opts.Tau, MaxStates: opts.VerifyMaxStates, Metrics: st.jo.gedM})
				st.GEDStatesExpanded += int64(res.States)
				switch {
				case err != nil:
					st.GEDBudgetHits++
					assisted = true
					if opts.Fallback == FallbackFull {
						// Rescue the world with the beam-search upper bound:
						// d ≤ τ still proves it similar, keeping the accept
						// side sound where the legacy path undercounted.
						if d, m := ged.Approximate(q, w, approxBeam); d <= opts.Tau {
							simP += p
							if d < best.Distance {
								best.Distance = d
								best.World = w.Clone()
								best.Mapping = m
							}
						}
					}
				case !res.Exceeded:
					simP += p
					if res.Distance < best.Distance {
						best.Distance = res.Distance
						best.World = w.Clone()
						best.Mapping = res.Mapping
					}
				}
			}
			if !opts.DisableEarlyExit {
				if simP >= alphaLo {
					st.EarlyAccepts++
					decided, accepted = true, true
					return false
				}
				if simP+remaining < alphaLo {
					st.EarlyRejects++
					decided, accepted = true, false
					return false
				}
			}
			return true
		})
	}

	st.jo.worldsPerPair.Observe(float64(pairWorlds))
	if outcome != exactDecided {
		return Pair{}, false, outcome, assisted
	}
	if !decided {
		accepted = simP >= alphaLo
	}
	if !accepted {
		return Pair{}, false, exactDecided, assisted
	}
	best.SimP = simP
	if !opts.KeepMappings {
		best.Mapping = nil
	}
	return best, true, exactDecided, assisted
}
