package filter

// The filter chain's stages.
//
// The paper fixes the pruning order. Algorithm 1 runs the CSS bound of
// Theorem 3 and then Theorem 4's probabilistic bound; Algorithm 2 runs CSS
// and then the grouped bound. Those are the three Bounds below, CSS, Prob and
// Group, and each join mode walks one fixed chain of them: [CSS], [CSS, Prob]
// or [CSS, Group] (core.Options.Mode). Every stage is sound, so a pruned pair
// is never a result.
//
// The certain-graph baselines of baselines.go (LM, count, c-star,
// path-grams, Pars, SEGOS) and the law-of-total-probability refinement of
// Theorem 4 (TotalProbabilityUpperBound) are not stages: Fig. 15 and the
// ablations compare them with CSS as alternatives, and call them as plain
// functions. A baseline bounds an uncertain pair soundly through the graph's
// certain relaxation (GSig.Relaxed).

import (
	"simjoin/internal/matching"
	"simjoin/internal/ugraph"
)

// BoundKind classifies what a bound's prune decision proves, which is how the
// join engine attributes the prune to its aggregate Stats counters.
type BoundKind int

const (
	// Structural bounds lower-bound ged(q, w) for every possible world w and
	// prune when the bound exceeds τ (SimPτ = 0).
	Structural BoundKind = iota
	// Probabilistic bounds upper-bound SimPτ(q, g) and prune when the bound
	// falls below α.
	Probabilistic
)

// Scratch holds the reusable per-worker buffers a filter chain writes
// through: the bipartite matching backing the λV computations, and the
// per-pair group bounds and split frontier of Algorithm 2's partition
// policy. The zero value is ready to use; a Scratch must not be shared
// between goroutines.
type Scratch struct {
	// BP backs the λV matchings of the CSS bound and the per-group bounds.
	BP matching.Bipartite

	groupCache map[*splitNode]groupEval
	frontier   []*splitNode
}

// PairContext is the per-pair state a chain of bounds shares: the two
// precomputed signatures, the join thresholds, and the cross-bound carry
// slots (the CSS lower bound, reused by the group bound's cache seed).
type PairContext struct {
	QS *QSig
	GS *GSig

	// Tau and Alpha are the join thresholds τ and α of Def. 7; GroupCount is
	// the possible-world group budget GN of Algorithm 2.
	Tau        int
	Alpha      float64
	GroupCount int

	// Scratch must be non-nil; the engine provides one per worker.
	Scratch *Scratch

	// CSSLB carries the whole-pair CSS lower bound forward once a css stage
	// has computed it, so later stages (the group bound's cache seed) reuse
	// it instead of re-running the λV matching.
	CSSLB    int
	HasCSSLB bool
}

// MassSlack absorbs floating-point rounding wherever a probability-mass sum
// is compared against α. Conditioned group masses do not sum bit-exactly to
// the graph's mass, nor world probabilities to their group's, so at α = 1 a
// pair whose every world qualifies can fall a few ulps short of α and be
// pruned or rejected. Comparing against α − MassSlack stays sound: summing
// the default 2^20 world budget errs by at most about 2^20 · 2^-53 ≈ 1.2e-10,
// so no accepted pair's exact SimP is below α − 1e-9.
const MassSlack = 1e-10

// belowAlpha reports whether a similarity-probability upper bound proves
// SimP < α, up to MassSlack.
func (pc *PairContext) belowAlpha(ub float64) bool { return ub < pc.Alpha-MassSlack }

// cssLowerBound returns the pair's CSS lower bound, computing and caching it
// in the context on first use.
func (pc *PairContext) cssLowerBound() int {
	if !pc.HasCSSLB {
		pc.CSSLB = CSSLowerBoundUncertainSigScratch(&pc.Scratch.BP, pc.QS, pc.GS)
		pc.HasCSSLB = true
	}
	return pc.CSSLB
}

// Outcome is one bound's verdict on one pair.
type Outcome struct {
	// Pruned eliminates the pair: structurally (lb > τ) or probabilistically
	// (ub < α) depending on the bound's Kind.
	Pruned bool
	// Groups, when non-nil on a surviving pair, is the possible-world
	// partition the verification stage should enumerate instead of the whole
	// graph (the group bound's kept groups).
	Groups []ugraph.Group
	// GroupsBuilt and GroupsCSSPruned tally Algorithm 2's partition work:
	// groups constructed, and groups removed by their own CSS bound.
	GroupsBuilt     int64
	GroupsCSSPruned int64
}

// Bound is one stage of the pruning pipeline. Apply must be safe for
// concurrent use on distinct PairContexts (all per-pair state lives in the
// context and its Scratch).
type Bound interface {
	// Name is the stage's stable name: it keys Stats.PrunedBy and
	// Stats.BoundProfile, the simjoin_bound_* metric labels and the event
	// log.
	Name() string
	Kind() BoundKind
	Apply(*PairContext) Outcome
}

// ── Chain stages ────────────────────────────────────────────────────────────

// The three chain stages: ModeCSSOnly runs [CSS], ModeSimJ [CSS, Prob] and
// ModeSimJOpt [CSS, Group].
var (
	// CSS is the structural CSS lower bound of Theorem 3.
	CSS Bound = cssBound{}
	// Prob is Theorem 4's similarity-probability upper bound.
	Prob Bound = probBound{}
	// Group is Algorithm 2's grouped probabilistic bound.
	Group Bound = groupBound{}
)

// cssBound is the structural CSS lower bound of Theorem 3, evaluated on the
// uncertain graph directly (wildcard-aware λV matching). It records the
// computed bound in the context for later stages.
type cssBound struct{}

func (cssBound) Name() string    { return "css" }
func (cssBound) Kind() BoundKind { return Structural }

func (cssBound) Apply(pc *PairContext) Outcome {
	lb := CSSLowerBoundUncertainSigScratch(&pc.Scratch.BP, pc.QS, pc.GS)
	pc.CSSLB, pc.HasCSSLB = lb, true
	return Outcome{Pruned: lb > pc.Tau}
}

// probBound is Theorem 4's similarity-probability upper bound.
type probBound struct{}

func (probBound) Name() string    { return "prob" }
func (probBound) Kind() BoundKind { return Probabilistic }

func (probBound) Apply(pc *PairContext) Outcome {
	return Outcome{Pruned: pc.belowAlpha(SimilarityUpperBoundSig(pc.QS, pc.GS, pc.Tau))}
}

// groupBound is Algorithm 2's grouped probabilistic bound: partition the
// possible worlds into at most GroupCount groups by the §6.2 cost model,
// prune each group by its own CSS bound, and prune the pair when the summed
// per-group upper bounds fall below α. Kept groups flow to verification
// through Outcome.Groups.
type groupBound struct{}

func (groupBound) Name() string    { return "group" }
func (groupBound) Kind() BoundKind { return Probabilistic }

func (groupBound) Apply(pc *PairContext) Outcome {
	sc := pc.Scratch
	sc.resetGroupCache(pc)
	nodes := partitionForQuery(pc)
	out := Outcome{GroupsBuilt: int64(len(nodes))}
	ubSum := 0.0
	for _, n := range nodes {
		ge := sc.evalGroup(pc.QS, n, pc.Tau)
		if ge.cssLB > pc.Tau {
			out.GroupsCSSPruned++
			continue
		}
		ub := ge.simUB
		if ub > n.group.Mass {
			ub = n.group.Mass
		}
		ubSum += ub
	}
	if pc.belowAlpha(ubSum) {
		out.Pruned = true
		return out
	}
	out.Groups = make([]ugraph.Group, 0, len(nodes)-int(out.GroupsCSSPruned))
	for _, n := range nodes {
		if sc.evalGroup(pc.QS, n, pc.Tau).cssLB <= pc.Tau {
			out.Groups = append(out.Groups, n.group)
		}
	}
	return out
}

// ── Possible-world grouping (Algorithm 2 machinery) ─────────────────────────

// groupEval caches one possible-world group's bounds during a single pair's
// grouped pruning: the partition policy of §6.2 re-examines every group each
// split round, which without the cache re-ran the O(V³) λV matching and
// multiset scans O(k²) times per pair.
type groupEval struct {
	cssLB int
	simUB float64 // Theorem 4 bound; valid only when cssLB <= tau
}

// resetGroupCache clears the per-pair group cache and seeds it with the whole
// graph's already-computed CSS bound.
func (sc *Scratch) resetGroupCache(pc *PairContext) {
	if sc.groupCache == nil {
		sc.groupCache = make(map[*splitNode]groupEval)
	}
	clear(sc.groupCache)
	ge := groupEval{cssLB: pc.cssLowerBound()}
	if ge.cssLB <= pc.Tau {
		ge.simUB = SimilarityUpperBoundSig(pc.QS, pc.GS, pc.Tau)
	}
	sc.groupCache[pc.GS.splitRoot()] = ge
}

// evalGroup returns the pair's cached bounds of one split-tree group,
// computing them on first sight from the group's memoized signature; the
// values are exactly what direct recomputation would yield.
func (sc *Scratch) evalGroup(qs *QSig, n *splitNode, tau int) groupEval {
	ge, ok := sc.groupCache[n]
	if !ok {
		ge.cssLB = CSSLowerBoundUncertainSigScratch(&sc.BP, qs, n.gs)
		if ge.cssLB <= tau {
			ge.simUB = SimilarityUpperBoundSig(qs, n.gs, tau)
		}
		sc.groupCache[n] = ge
	}
	return ge
}

// partitionForQuery divides g's possible worlds into at most GroupCount
// groups using the cost model of §6.2: at every round, split the group with
// the largest probabilistic upper bound (the loosest contributor), i.e.
// minimise Σ ub_SimP over non-pruned groups. Which group to split depends on
// the query; how a group splits does not, so the groups are nodes of g's
// memoized split tree (GSig.splitRoot) and only their bounds are computed
// per pair. The returned frontier is the scratch's, valid until the next
// pair.
func partitionForQuery(pc *PairContext) []*splitNode {
	sc := pc.Scratch
	nodes := append(sc.frontier[:0], pc.GS.splitRoot())
	for len(nodes) < pc.GroupCount {
		best, bestUB := -1, -1.0
		for i, n := range nodes {
			if n.splitV < 0 {
				continue
			}
			ge := sc.evalGroup(pc.QS, n, pc.Tau)
			ub := 0.0
			if ge.cssLB <= pc.Tau {
				ub = ge.simUB
				if ub > n.group.Mass {
					ub = n.group.Mass
				}
			}
			if ub > bestUB {
				best, bestUB = i, ub
			}
		}
		if best < 0 {
			break
		}
		left, right := nodes[best].children()
		nodes[best] = left
		nodes = append(nodes, right)
	}
	sc.frontier = nodes
	return nodes
}
