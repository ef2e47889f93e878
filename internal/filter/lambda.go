// Package filter implements the pruning machinery of the paper: the CSS-based
// lower bounds on graph edit distance for certain graphs (Theorem 1) and
// uncertain graphs (Theorem 3), the probabilistic upper bound on the
// similarity probability (Theorem 4), and the baseline filters the paper
// compares against in §7.3/Fig. 15 — label-multiset (LM), vertex/edge count,
// c-star, path-grams, a partition-based filter in the spirit of Pars, and a
// two-level cascade in the spirit of SEGOS.
//
// Complexities (Appendix D): the uncertain CSS bound is dominated by the
// Def. 10 maximum matching, O(|V|³) via Hopcroft–Karp on the dense
// compatibility graph; the certain CSS bound costs O(|E(q)|·|E(g)|) for λE
// plus O(|V| log |V|) for the degree distance; the probabilistic bound costs
// O(min{|V|·|L(v)|, |V(q)|·|V(g)|}). All bounds run in polynomial time even
// though verification (exact GED over possible worlds) is NP-hard.
package filter

import (
	"simjoin/internal/graph"
	"simjoin/internal/matching"
	"simjoin/internal/ugraph"
)

// LambdaV returns λV(q, g): the maximum number of vertex pairs with common
// labels between two certain graphs, computed as a maximum matching of the
// vertex label compatibility graph. Wildcard labels match anything;
// compatibility is decided on dictionary ids.
func LambdaV(a, b *graph.Graph) int {
	bp := matching.NewBipartite(a.NumVertices(), b.NumVertices())
	aids, bids := a.VertexLabelIDs(), b.VertexLabelIDs()
	for u, ua := range aids {
		for v, vb := range bids {
			if graph.IDsMatch(ua, vb) {
				bp.AddEdge(u, v)
			}
		}
	}
	return bp.MaxMatchingSize()
}

// LambdaVUncertain returns the uniform upper bound on λV(q, pw(g)) over all
// possible worlds of g: the maximum matching of the vertex label bipartite
// graph of Def. 10, where a q-vertex is adjacent to a g-vertex iff the
// q-vertex's label occurs among the g-vertex's candidate labels.
func LambdaVUncertain(q *graph.Graph, g *ugraph.Graph) int {
	bp := matching.NewBipartite(q.NumVertices(), g.NumVertices())
	qids := q.VertexLabelIDs()
	for u, qid := range qids {
		for v := 0; v < g.NumVertices(); v++ {
			if vertexMatchesUncertain(qid, g.LabelIDs(v)) {
				bp.AddEdge(u, v)
			}
		}
	}
	return bp.MaxMatchingSize()
}

func vertexMatchesUncertain(qid graph.LabelID, candidates []graph.LabelID) bool {
	for _, id := range candidates {
		if graph.IDsMatch(qid, id) {
			return true
		}
	}
	return false
}

// LambdaE returns λE(q, g): the maximum number of edge pairs with common
// labels, computed on the edge label multisets with wildcard edges matching
// anything.
func LambdaE(a, b *graph.Graph) int {
	la, wa := a.EdgeLabelIDMultiset()
	lb, wb := b.EdgeLabelIDMultiset()
	return multisetCommonIDs(la, wa, a.NumEdges(), lb, wb, b.NumEdges())
}

// LambdaEUncertain is LambdaE against an uncertain graph; edge labels are
// certain in the model, so only the representations differ.
func LambdaEUncertain(q *graph.Graph, g *ugraph.Graph) int {
	la, wa := q.EdgeLabelIDMultiset()
	lb, wb := g.EdgeLabelIDMultiset()
	return multisetCommonIDs(la, wa, q.NumEdges(), lb, wb, g.NumEdges())
}

// multisetCommonIDs computes the maximum matching size between two label
// multisets where wildcards pair with anything: the concrete-label multiset
// intersection (a two-pointer merge over the sorted id vectors) plus
// wildcard pairings, capped by both totals.
func multisetCommonIDs(la []graph.LabelCount, wa, totalA int, lb []graph.LabelCount, wb, totalB int) int {
	common := 0
	for i, j := 0, 0; i < len(la) && j < len(lb); {
		switch {
		case la[i].ID < lb[j].ID:
			i++
		case la[i].ID > lb[j].ID:
			j++
		default:
			if la[i].N < lb[j].N {
				common += int(la[i].N)
			} else {
				common += int(lb[j].N)
			}
			i++
			j++
		}
	}
	// Wildcards on either side can absorb any unmatched counterpart.
	leftA := totalA - wa - common // concrete a-labels still unmatched
	leftB := totalB - wb - common
	// Pair a-wildcards with leftover b items (concrete or wildcard), then
	// b-wildcards with leftover a items.
	wa2, wb2 := wa, wb
	m := min(wa2, leftB+wb2)
	common += m
	usedBWild := max(0, m-leftB)
	wb2 -= usedBWild
	common += min(wb2, leftA)
	if common > totalA {
		common = totalA
	}
	if common > totalB {
		common = totalB
	}
	return common
}

// DegreeDistance computes dif(a, b) of Def. 9 between the degree sequences of
// the smaller-vertex graph and the larger one: with both sequences sorted in
// non-increasing order, it is Σ_i (dSmall[i] ⊖ dBig[i]) over the smaller
// graph's positions, where x ⊖ y = max(x−y, 0).
func DegreeDistance(a, b *graph.Graph) int {
	da, db := a.DegreeSequence(), b.DegreeSequence()
	if len(da) > len(db) {
		da, db = db, da
	}
	return degreeDistanceSeq(da, db)
}

func degreeDistanceSeq(small, big []int) int {
	dif := 0
	for i, d := range small {
		if d > big[i] {
			dif += d - big[i]
		}
	}
	return dif
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
