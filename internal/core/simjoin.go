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
	"cmp"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
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
	// verification; pairs beyond it go down the verdict ladder (sampling,
	// then approximate bounds). 0 means the default of 1<<20.
	MaxWorlds int64
	// VerifyMaxStates caps the A* states per GED verification call; a world
	// exceeding it is ruled in by the beam-search bound or left unresolved,
	// and is tallied in Stats.GEDBudgetHits. 0 means the default of 4e6.
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
	// pair (needed for template generation). It is the mapping a threshold
	// GED finds on that world, which costs one extra GED per result whose
	// best world was scored against the relaxed mapping lists.
	KeepMappings bool

	// Obs, when non-nil, receives live metrics for the run — per-stage
	// latency histograms and per-call GED histograms — and, on completion,
	// the cumulative Stats counters and per-bound profile, written once from
	// the returned Stats (publishStats). Nil disables metric collection at no
	// cost.
	Obs *obs.Registry
	// Tracer, when non-nil, records one core.join span per join into its
	// ring buffer (exportable as a Chrome trace); per-pair time is in the
	// stage histograms and the event log.
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

// stages names the Mode's pruning stages in the order prunephase runs them:
// Algorithm 1 is css then prob, Algorithm 2 css then group, and ModeCSSOnly
// (like any unknown Mode) css alone. A stage's index is its position in
// Stats.BoundProfile.
func (m Mode) stages() []string {
	switch m {
	case ModeSimJ:
		return []string{"css", "prob"}
	case ModeSimJOpt:
		return []string{"css", "group"}
	default:
		return []string{"css"}
	}
}

// Pair is one join result: SPARQL query graph q = D[Q] matched uncertain
// question graph g = U[G] with SimPτ(q,g) = SimP ≥ α.
type Pair struct {
	Q, G     int
	SimP     float64
	Distance int // smallest ged(q, pw) among satisfying worlds
	// World is a satisfying world achieving Distance. It is shared and
	// read-only: every result of G that reports the same world points at
	// the same graph, which the join materialised once for all of G's
	// candidates. Clone it to modify it.
	World   *graph.Graph
	Mapping ged.Mapping // q -> World vertex mapping (when KeepMappings)
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
	// SkippedPairs counts pairs that ended VerdictUndecided: no rung of the
	// verification ladder could decide them within its budgets (or the join
	// was cancelled mid-pair). Such pairs still count in Candidates — they
	// entered verification — and the worlds every rung examined before
	// giving up stay in WorldsChecked, so CSSPruned + ProbPruned +
	// Candidates == Pairs always holds.
	SkippedPairs int64
	// WorldsChecked counts every possible world examined during verification,
	// including the partial enumerations of pairs that ended in SkippedPairs.
	WorldsChecked int64
	// GEDCalls counts the exact GED searches verification ran: per-world
	// threshold A* calls, and the one all-solutions search per pair that
	// builds the relaxed mapping lists.
	GEDCalls      int64
	GEDBudgetHits int64 // GED calls aborted by VerifyMaxStates
	// GEDStatesExpanded sums the A* search states expanded across all exact
	// GED calls, including aborted ones — the join's verification effort in
	// engine units, independent of wall clock.
	GEDStatesExpanded int64
	// RelaxedPairs counts the pairs whose worlds after the first were scored
	// against the relaxed graph's mapping lists instead of one GED each;
	// RelaxedMappings sums the mappings in those lists. RelaxedFallbacks
	// counts list builds that exhausted VerifyMaxStates, exceeded
	// ged.MaxMappings or failed, after which the pair went on world by world.
	RelaxedPairs     int64
	RelaxedMappings  int64
	RelaxedFallbacks int64
	// PruneTime is the time spent pruning: every graph's index sweep (the
	// size screen, the label-overlap bound and the counted CSS bound, with
	// the signature build of a graph that has candidates) plus every pair's
	// pruning stages. VerifyTime is the verdict ladder's time.
	PruneTime    time.Duration
	VerifyTime   time.Duration
	GroupsBuilt  int64 // possible-world groups constructed (SimJ+opt)
	GroupsPruned int64 // groups removed by their CSS bound
	// PrunedBy breaks the pruned pairs down by the pruning stage that
	// eliminated each one, under the stage's name (css, prob or group):
	// BoundProfile's prunes by name. Summed over the stages it equals
	// CSSPruned + ProbPruned minus IndexSkipped: pairs the index prescreens
	// removed, those the counted CSS bound ruled out included, never reach a
	// stage, so the css entry counts only what the exact matching adds.
	// CSSPruned and ProbPruned split the same prunes by position: position
	// 0 (css) and the prescreen skips, and position 1 (prob or group).
	// Nil when no stage pruned anything; BoundProfile still lists every
	// stage then, so a per-bound report reads BoundProfile.
	PrunedBy map[string]int64 `json:",omitempty"`
	// BoundProfile is the per-stage cost/selectivity profile in stage order:
	// one entry per stage of the Mode, evaluated or not, with the stage's
	// evaluation count, prune count and (when profiling timing was on)
	// accumulated evaluation nanoseconds. See BoundCost and WriteExplain
	// (profile.go).
	BoundProfile []BoundCost `json:",omitempty"`
	EarlyAccepts int64       // verifications stopped early at ≥ α
	EarlyRejects int64       // verifications stopped early at < α
	// IndexSkipped counts pairs eliminated by the index's prescreens before
	// the pruning stages: the size screen, the label-overlap bound and the
	// counted CSS bound (filter.CSSLowerBoundCounted). Every join sweeps an
	// index (Join, Index.Source, NewStreamSource), so every join books them.
	// They are also counted in CSSPruned: the prescreens are implied by the
	// CSS bound.
	IndexSkipped int64
	SampledPairs int64 // pairs decided by the Monte Carlo sampling rung
	ExactPairs   int64 // pairs decided by exact possible-world enumeration
	ApproxPairs  int64 // pairs decided with approximate-bound assistance
	// BudgetFallbacks counts pairs that left the exact enumeration path
	// (MaxWorlds blown, pre-screened as over budget, deadline expired, or
	// GED-budget worlds left undecidable) and were handed to the ladder's
	// fallback rungs.
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
	for _, c := range statsCounterSpec {
		*c.fld(s) += *c.fld(o)
	}
	for _, c := range statsDurationSpec {
		*c.fld(s) += *c.fld(o)
	}
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
	sortQuarantined(s.Quarantined)
}

// sortQuarantined orders a quarantine log by (Q, G).
func sortQuarantined(log []QuarantineRecord) {
	sort.Slice(log, func(i, j int) bool {
		if log[i].Q != log[j].Q {
			return log[i].Q < log[j].Q
		}
		return log[i].G < log[j].G
	})
}

// Join performs the similarity join of Def. 7 between the certain graphs D
// and the uncertain graphs U, returning all pairs with SimPτ ≥ α sorted by
// (Q, G). It indexes D for this one call (see JoinContext); to reuse an index
// across calls, pass BuildIndex(d).Source(u) to JoinWith.
func Join(d []*graph.Graph, u []*ugraph.Graph, opts Options) ([]Pair, Stats, error) {
	return JoinContext(context.Background(), d, u, opts)
}

// JoinContext is Join with cancellation: when ctx is cancelled the workers
// stop picking up new uncertain graphs and pairs, in-flight pairs finish,
// and ctx.Err() is returned along with the Stats accumulated so far (results
// are dropped — a partial join result would be silently incomplete). It is a
// thin wrapper over the pipeline engine (see engine.go) with a one-shot Index
// over D as the candidate feed: the index's prescreens (size, label overlap,
// counted CSS bound) are implied by the CSS bound, so the answer set is the
// full cross product's, while the pairs they rule out never reach the
// pruning stages (Stats.IndexSkipped).
func JoinContext(ctx context.Context, d []*graph.Graph, u []*ugraph.Graph, opts Options) ([]Pair, Stats, error) {
	return joinEngine(ctx, BuildIndex(d).Source(u), opts)
}

// finishStats orders the quarantine log deterministically, publishes the
// run's counters to the registry, and syncs the auxiliary instruments
// (tracer drop count, event-log tallies); every join driver calls it once
// after its workers drain.
func finishStats(total *Stats, jo *joinObs) {
	sortQuarantined(total.Quarantined)
	publishStats(jo.reg, total)
	jo.syncAux()
}

// pairIn bundles one (q, g) pair with its precomputed filter signatures,
// q's prepared GED side and the dataset indices. The join drivers assemble
// it once per pair so the pipeline below never rebuilds them inside the pair
// loop.
type pairIn struct {
	q      *graph.Graph
	g      *ugraph.Graph
	qs     *filter.QSig
	gs     *filter.GSig
	qp     *ged.Prepared
	qi, gi int
}

// joinPair runs the filter-and-refine pipeline of Algorithm 1 on one pair:
// the Mode's pruning stages, then — for survivors — the verdict ladder.
//
// Panics are contained here: a panic anywhere in the pair's pruning or
// verification quarantines the pair (recorded with its stack in
// Stats.Quarantined) instead of crashing the join; the worker's scratch
// buffers are reset at the start of every pair, so reuse after a contained
// panic is safe. When Options.PairDeadline is set, verification runs under a
// pair-scoped context deadline.
func joinPair(ctx context.Context, pi *pairIn, opts *Options, st *rec) (p Pair, ok bool) {
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
	groups, prunedBy := prunephase(pi, opts, st)
	pruneDur := time.Since(pruneStart)
	st.PruneTime += pruneDur
	st.jo.pruneSeconds.ObserveDuration(pruneDur)
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

// prunephase runs the Mode's pruning stages on the pair in the order of
// Algorithms 1 and 2 and stops at the first that prunes it: Theorem 3's CSS
// lower bound at position 0 (pruned when lb > τ), then Theorem 4's upper
// bound (SimJ) or the grouped bound of §6.2 (SimJ+opt) at position 1 (pruned
// when the bound on SimPτ falls below α). It returns the possible-world
// groups to verify (nil means verify the whole graph as one group; the
// grouped bound's kept groups replace it) and the name of the stage that
// pruned the pair ("" when the pair survived). Every evaluation lands in the
// worker's BoundProfile, from which rec.finish derives PrunedBy, CSSPruned
// and ProbPruned.
func prunephase(pi *pairIn, opts *Options, st *rec) ([]ugraph.Group, string) {
	t0 := st.stageStart()
	lb := filter.CSSLowerBoundUncertainSigScratch(&st.fsc.BP, pi.qs, pi.gs)
	if st.book(0, lb > opts.Tau, t0) {
		return nil, "css"
	}
	switch opts.Mode {
	case ModeSimJ:
		t0 = st.stageStart()
		ub := filter.SimilarityUpperBoundSig(pi.qs, pi.gs, opts.Tau)
		if st.book(1, ub < opts.Alpha-filter.MassSlack, t0) {
			return nil, "prob"
		}
	case ModeSimJOpt:
		t0 = st.stageStart()
		pruned, groups, built, cssPruned := filter.GroupBound(&st.fsc, pi.qs, pi.gs, lb, opts.Tau, opts.Alpha, opts.GroupCount)
		st.GroupsBuilt += built
		st.GroupsPruned += cssPruned
		if st.book(1, pruned, t0) {
			return nil, "group"
		}
		return groups, ""
	}
	return nil, ""
}

// stageStart returns the start time of a pruning stage when profiling is on,
// the zero time otherwise.
func (st *rec) stageStart() time.Time {
	if st.jo.profile {
		return time.Now()
	}
	return time.Time{}
}

// book lands one evaluation of the stage at position i, begun at t0, in the
// worker's BoundProfile and — when the pair is event-sampled — the event
// record, and returns pruned. Evaluations are timed only when profiling is
// on; untimed ones book zero nanoseconds.
func (st *rec) book(i int, pruned bool, t0 time.Time) bool {
	bc := &st.BoundProfile[i]
	bc.Evals++
	if pruned {
		bc.Prunes++
	}
	if st.jo.profile {
		d := int64(time.Since(t0))
		bc.Nanos += d
		if st.evSampled {
			st.ev.Bounds = append(st.ev.Bounds, obs.BoundObs{Bound: bc.Bound, Ns: d, Pruned: pruned})
		}
	}
	return pruned
}

// exactOutcome reports how the exact enumeration rung ended.
type exactOutcome int

const (
	exactDecided   exactOutcome = iota // accept/reject settled within budget
	exactBudget                        // MaxWorlds blown, a budget fault, or unresolved mass straddling α
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
//     the first world by GED and later ones against the relaxed mapping
//     lists, with early accept/reject on accumulated mass — unless the
//     world count is already over MaxWorlds and the sampling rung is on, in
//     which case the rung is skipped outright.
//  2. Monte Carlo sampling (sampleVerify) when rung 1 ran out of worlds,
//     states or time; SampleWorlds < 0 turns it off.
//  3. Approximate bounds over the most probable worlds (approxVerify).
//
// Every rung decides soundly in both directions (sampling up to its
// Hoeffding margin); pairs no rung decides are counted in Stats.SkippedPairs
// (VerdictUndecided). pairCtx carries the per-pair soft deadline, joinCtx the join-wide
// cancellation; the distinction decides whether an interrupted rung degrades
// (deadline) or aborts (cancelled).
func verify(pairCtx, joinCtx context.Context, pi *pairIn, groups []ugraph.Group, opts *Options, st *rec) (Pair, bool) {
	if opts.SampleWorlds > 0 && pi.gs.WorldsF > float64(opts.MaxWorlds) {
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
	// The approximate rung is cheap and strictly bounded, so it runs even
	// after a deadline hit: better a late certified bound than no verdict.
	if p, ok, decided := approxVerify(pi, opts, st); decided {
		st.ApproxPairs++
		st.evVerdict = VerdictApproxBound
		return p, ok
	}
	st.SkippedPairs++
	return Pair{}, false
}

// verifyExact computes the exact SimPτ(q, g) by enumerating possible worlds
// — high-mass groups first, mixed-radix within a group — with early
// accept/reject on the accumulated probability mass unless disabled.
//
// Each world gets a CSS pre-check and, if that passes, a threshold GED, and
// most pairs decide at their first world. In a pair whose groups hold at
// least relaxedMinWorlds(τ) worlds, the first later world that passes the
// pre-check builds the relaxed mapping lists instead of running its GED,
// once (buildRelaxed, relaxed.go), and that world and every later one are
// scored against them; when the build fails, the loop goes on world by
// world. The per-world CSS bound runs through the worker's
// PairVerifier: every world of g (and of its conditioned groups) shares g's
// structure, so only the λV matching is recomputed per world. A group of a
// single world skips it: that world's bound is the CSS bound the css stage
// (or the group bound, for a kept group) already passed.
//
// The best world is the graph's shared copy of it (worlds.go): a world that
// several results of the graph report is cloned once, not once per pair.
//
// A world whose exact GED exhausts VerifyMaxStates is ruled in when the
// beam-search upper bound is within τ; otherwise its mass stays unresolved.
// A reject must hold with the unresolved mass counted as similar, so a pair
// that needs it to decide ends exactBudget and goes down the ladder.
// assisted reports that at least one GED hit its budget: the verdict is then
// no longer exact.
func verifyExact(pairCtx, joinCtx context.Context, pi *pairIn, groups []ugraph.Group, opts *Options, st *rec) (Pair, bool, exactOutcome, bool) {
	qi, gi := pi.qi, pi.gi
	// High-mass groups first: the early accept/reject thresholds are reached
	// sooner when probable worlds are enumerated early. Without kept groups
	// the whole graph is the one group, held in a local array.
	var whole [1]ugraph.Group
	if groups == nil {
		whole[0] = ugraph.Group{G: pi.g, Mass: pi.gs.Mass}
		groups = whole[:]
	} else {
		slices.SortFunc(groups, func(a, b ugraph.Group) int { return cmp.Compare(b.Mass, a.Mass) })
	}
	totalMass, totalWorlds := 0.0, 0.0
	for _, gr := range groups {
		totalMass += gr.Mass
		totalWorlds += gr.G.WorldCountFloat()
	}
	worldBudget := opts.MaxWorlds
	faultArmed := fault.Enabled()
	var faultKey uint64
	if faultArmed {
		faultKey = fault.PairKey(qi, gi)
	}

	simP := 0.0
	remaining := totalMass
	unresolved := 0.0
	// Accept and reject against α up to the rounding of the mass sums (see
	// filter.MassSlack): at α = 1 an exact SimP of 1 can sum a few ulps short.
	alphaLo := opts.Alpha - filter.MassSlack
	best := Pair{Q: qi, G: gi, Distance: opts.Tau + 1}
	outcome := exactDecided
	decided := false
	accepted := false
	assisted := false
	pairWorlds := int64(0)
	// lists marks the relaxed lists built, tried a build attempted; bestAt
	// is the listed mapping attaining best when a list-scored world set it,
	// -1 otherwise. preCheck marks a group of several worlds, whose worlds
	// get the CSS pre-check; pvReady that st.pv holds the pair.
	lists, tried := false, false
	minWorlds := relaxedMinWorlds(opts.Tau)
	bestAt := -1
	preCheck, pvReady := false, false

	// The context is polled every ctxCheckEvery worlds, so short enumerations
	// would outrun an already-expired deadline without this entry check.
	if pairCtx.Err() != nil {
		if joinCtx.Err() != nil {
			return Pair{}, false, exactCancelled, false
		}
		return Pair{}, false, exactDeadline, false
	}

	for _, gr := range groups {
		if decided || outcome != exactDecided {
			break
		}
		preCheck = gr.G.WorldCountFloat() > 1
		if preCheck && !pvReady {
			st.pv.Reset(pi.qs, pi.gs)
			pvReady = true
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
			ruledOut := !lists && preCheck && st.pv.WorldLowerBound(w) > opts.Tau
			if !ruledOut && !lists && !tried && pairWorlds > 1 && totalWorlds >= minWorlds && !testPerWorld {
				// The first GED after the first world: build the relaxed
				// lists instead, once, and score this world and every
				// later one against them.
				tried = true
				lists = st.buildRelaxed(pi, opts)
			}
			switch {
			case lists:
				if d, at := st.rl.score(w.VertexLabelIDs(), opts.Tau); at >= 0 {
					simP += p
					if d < best.Distance {
						best.Distance = d
						best.World = st.worlds.keep(pi.g, w)
						best.Mapping, bestAt = nil, at
					}
				}
			case !ruledOut:
				res, err := st.gedCompute(pi, w, opts)
				switch {
				case err != nil:
					assisted = true
					// Rescue the world with the beam-search upper bound:
					// d ≤ τ still proves it similar.
					if d, m := ged.Approximate(pi.q, w, approxBeam); d <= opts.Tau {
						simP += p
						if d < best.Distance {
							best.Distance = d
							best.World = st.worlds.keep(pi.g, w)
							best.Mapping, bestAt = m, -1
						}
					} else {
						unresolved += p
					}
				case !res.Exceeded:
					simP += p
					if res.Distance < best.Distance {
						best.Distance = res.Distance
						best.World = st.worlds.keep(pi.g, w)
						best.Mapping, bestAt = st.takeMapping(res.Mapping), -1
					}
				}
			}
			if !opts.DisableEarlyExit {
				if simP >= alphaLo {
					st.EarlyAccepts++
					decided, accepted = true, true
					return false
				}
				if simP+remaining+unresolved < alphaLo {
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
		if !accepted && simP+unresolved >= alphaLo {
			// The unresolved worlds could carry SimP to α: no sound verdict.
			return Pair{}, false, exactBudget, assisted
		}
	}
	if !accepted {
		return Pair{}, false, exactDecided, assisted
	}
	best.SimP = simP
	if !opts.KeepMappings {
		best.Mapping = nil
		return best, true, exactDecided, assisted
	}
	if bestAt >= 0 {
		// The mapping the per-world loop records is the one A* finds on
		// the best world; a listed mapping attaining the same distance may
		// be a different one. A failed GED here is treated like one in the
		// loop: the verdict is assisted, and the listed mapping stands in.
		if res, err := st.gedCompute(pi, best.World, opts); err == nil && !res.Exceeded {
			best.Mapping = res.Mapping
		} else {
			assisted = true
			best.Mapping = st.rl.mapping(bestAt)
		}
	}
	best.Mapping = slices.Clone(best.Mapping)
	return best, true, exactDecided, assisted
}
