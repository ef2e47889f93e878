package filter

// The pruning stages.
//
// The paper fixes the pruning order. Algorithm 1 runs the CSS bound of
// Theorem 3 (CSSLowerBoundUncertainSigScratch) and then Theorem 4's
// probabilistic bound (SimilarityUpperBoundSig); Algorithm 2 runs CSS and
// then the grouped bound (GroupBound, below). The join calls them in that
// order (core's prunephase). Every stage is sound, so a pruned pair is never
// a result.
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

// Scratch holds the reusable per-worker buffers the pruning stages write
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

// MassSlack absorbs floating-point rounding wherever a probability-mass sum
// is compared against α. Conditioned group masses do not sum bit-exactly to
// the graph's mass, nor world probabilities to their group's, so at α = 1 a
// pair whose every world qualifies can fall a few ulps short of α and be
// pruned or rejected. Comparing against α − MassSlack stays sound: summing
// the default 2^20 world budget errs by at most about 2^20 · 2^-53 ≈ 1.2e-10,
// so no accepted pair's exact SimP is below α − 1e-9.
const MassSlack = 1e-10

// GroupBound is Algorithm 2's grouped probabilistic bound on the pair
// (qs, gs): partition g's possible worlds into at most gn groups by the §6.2
// cost model, prune each group by its own CSS bound, and prune the pair when
// the summed per-group upper bounds fall below α (up to MassSlack). cssLB is
// the whole pair's CSS lower bound, already computed by the stage before; it
// seeds the root of the split tree. A surviving pair's kept groups are what
// verification enumerates instead of the whole graph (nil when pruned);
// built and cssPruned tally the groups constructed and the groups their own
// CSS bound removed.
func GroupBound(sc *Scratch, qs *QSig, gs *GSig, cssLB, tau int, alpha float64, gn int) (pruned bool, groups []ugraph.Group, built, cssPruned int64) {
	sc.resetGroupCache(qs, gs, cssLB, tau)
	nodes := sc.partitionForQuery(qs, gs, tau, gn)
	built = int64(len(nodes))
	ubSum := 0.0
	for _, n := range nodes {
		ge := sc.evalGroup(qs, n, tau)
		if ge.cssLB > tau {
			cssPruned++
			continue
		}
		ub := ge.simUB
		if ub > n.group.Mass {
			ub = n.group.Mass
		}
		ubSum += ub
	}
	if ubSum < alpha-MassSlack {
		return true, nil, built, cssPruned
	}
	groups = make([]ugraph.Group, 0, len(nodes)-int(cssPruned))
	for _, n := range nodes {
		if sc.evalGroup(qs, n, tau).cssLB <= tau {
			groups = append(groups, n.group)
		}
	}
	return false, groups, built, cssPruned
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
// graph's already-computed CSS bound cssLB.
func (sc *Scratch) resetGroupCache(qs *QSig, gs *GSig, cssLB, tau int) {
	if sc.groupCache == nil {
		sc.groupCache = make(map[*splitNode]groupEval)
	}
	clear(sc.groupCache)
	ge := groupEval{cssLB: cssLB}
	if ge.cssLB <= tau {
		ge.simUB = SimilarityUpperBoundSig(qs, gs, tau)
	}
	sc.groupCache[gs.splitRoot()] = ge
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

// partitionForQuery divides g's possible worlds into at most gn groups
// using the cost model of §6.2: at every round, split the group with the
// largest probabilistic upper bound (the loosest contributor), i.e. minimise
// Σ ub_SimP over non-pruned groups. Which group to split depends on the
// query; how a group splits does not, so the groups are nodes of g's
// memoized split tree (GSig.splitRoot) and only their bounds are computed
// per pair. The returned frontier is the scratch's, valid until the next
// pair.
func (sc *Scratch) partitionForQuery(qs *QSig, gs *GSig, tau, gn int) []*splitNode {
	nodes := append(sc.frontier[:0], gs.splitRoot())
	for len(nodes) < gn {
		best, bestUB := -1, -1.0
		for i, n := range nodes {
			if n.splitV < 0 {
				continue
			}
			ge := sc.evalGroup(qs, n, tau)
			ub := 0.0
			if ge.cssLB <= tau {
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
