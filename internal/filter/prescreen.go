package filter

// The per-graph label summary and the counted form of Theorem 3 behind
// core.Index's candidate sweep.

import (
	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// UnionConcreteLabels fills set (cleared on entry) with the union of g's
// concrete candidate vertex labels and returns the number of vertices that
// carry a wildcard candidate: the uncertain side's input to core.Index's
// word-parallel label-overlap bound.
func UnionConcreteLabels(g *ugraph.Graph, set *graph.LabelSet) (wilds int) {
	set.Reset()
	for v := 0; v < g.NumVertices(); v++ {
		wild := false
		for _, id := range g.LabelIDs(v) {
			if id == graph.WildcardID {
				wild = true
			} else {
				set.Add(id)
			}
		}
		if wild {
			wilds++
		}
	}
	return wilds
}

// LambdaVCounted is an upper bound on LambdaVUncertainSig(qs, gs) that runs
// no matching:
//
//	λVcount = min(|V(q)|, |V(g)|, Wq + Wg + Σ_l min(cnt_q(l), n_g(l)))
//
// where Wq counts q's wildcard vertices, Wg counts g's vertices with a
// wildcard candidate label, cnt_q(l) counts q's vertices labelled l, and
// n_g(l) counts g's vertices carrying l among their candidates; l ranges
// over q's concrete labels.
//
// Proof that λVcount ≥ λV. Take a maximum matching M of Def. 10's bipartite
// graph. Every edge (u, v) of M has a wildcard q-vertex u, or a g-vertex v
// with a wildcard candidate, or a concrete label l of u among v's
// candidates. M uses each vertex once, so at most Wq edges are of the first
// kind, at most Wg of the second, and, for each l, at most min(cnt_q(l),
// n_g(l)) of the third: distinct q-vertices labelled l on one side,
// distinct g-vertices carrying l on the other. (An edge of several kinds is
// counted more than once, which only loosens the bound.) A matching has at
// most min(|V(q)|, |V(g)|) edges.
//
// It reads only g's counts (GCounts), merging q's and g's sorted label
// vectors, and allocates nothing.
func LambdaVCounted(qs *QSig, gs *GCounts) int {
	n := qs.VWilds + gs.VWilds
	i := 0
	for _, lc := range qs.VLabels {
		for i < len(gs.VCounts) && gs.VCounts[i].ID < lc.ID {
			i++
		}
		if i < len(gs.VCounts) && gs.VCounts[i].ID == lc.ID {
			n += min(int(lc.N), int(gs.VCounts[i].N))
		}
	}
	return min(n, min(qs.NumV, gs.NumV))
}

// CSSLowerBoundCounted is the counted form of Theorem 3: C(q, g) − λVcount,
// with λV replaced by LambdaVCounted. It is sound and never tighter than the
// exact bound: λVcount ≥ λV, so
//
//	CSSLowerBoundCounted(qs, gs) ≤ CSSLowerBoundUncertainSig(qs, gs),
//
// and a pair it puts beyond τ is beyond τ in every possible world. It needs
// no clamp at zero: λE ≤ min(|E(q)|, |E(g)|) and ⌈dif/2⌉ ≥ 0, so
// C ≥ max(|V(q)|, |V(g)|) ≥ λVcount.
//
// It is never below max(|V(q)|, |V(g)|) − overlap, where overlap = Wq + Wg +
// Σ_{l ∈ labels(g)} cnt_q(l) counts q's vertices whose label g could match:
// every term of λVcount's sum is at most overlap's, and C ≥ max(|V(q)|,
// |V(g)|). A pair that this overlap bound, or any relaxation of it such as
// core.Index's word-parallel bound, puts beyond τ is beyond τ here too, so
// such a bound is a valid pre-filter in front of this one. Like
// LambdaVCounted it reads only g's counts: a GSig's are &gs.GCounts.
func CSSLowerBoundCounted(qs *QSig, gs *GCounts) int {
	return cssConstantCounts(qs, gs) - LambdaVCounted(qs, gs)
}
