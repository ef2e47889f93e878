package filter

// The per-graph label summary and the λV overlap prescreen behind
// core.Index's candidate sweep.

import (
	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// UnionConcreteLabels fills set (cleared on entry) with the union of g's
// concrete candidate vertex labels and returns the number of vertices that
// carry a wildcard candidate: the uncertain side's input to
// LabelOverlapScreen.
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

// LabelOverlapScreen applies the λV multiset-overlap prescreen of the
// index-backed candidate source (core.Index): a generous upper bound on
// the vertex-label overlap of q and g, pruning the pair when even that bound
// leaves more than τ unmatched vertices on the larger side (the LM filter —
// and hence the CSS bound — would prune it anyway, so the screen is sound for
// Def. 7). gSet is the union of g's concrete candidate labels, gWilds the
// number of g-vertices with a wildcard candidate, gNumV its vertex count.
// Returns true when the pair survives.
func LabelOverlapScreen(qs *QSig, gSet *graph.LabelSet, gWilds, gNumV, tau int) bool {
	overlap := qs.VWilds // every wildcard q-vertex can match something
	if qs.VSet.Intersects(gSet) {
		for _, lc := range qs.VLabels {
			if gSet.Has(lc.ID) {
				overlap += int(lc.N)
			}
		}
	}
	overlap += gWilds // wildcard g-vertices absorb leftover q-vertices
	maxV := qs.NumV
	if gNumV > maxV {
		maxV = gNumV
	}
	if overlap > maxV {
		overlap = maxV
	}
	return maxV-overlap <= tau
}
