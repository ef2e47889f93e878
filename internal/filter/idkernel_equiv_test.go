package filter

import (
	"math/rand"
	"testing"

	"simjoin/internal/graph"
	"simjoin/internal/matching"
	"simjoin/internal/ugraph"
)

// This file pins the dictionary-encoded kernels to the original string
// implementations: every bound that now compares interned label ids (or
// merges sorted id-count vectors, or probes a label bitset) must return
// values bit-identical to a reference that compares the label strings with
// graph.LabelsMatch. The references below are verbatim copies of the
// pre-dictionary implementations; the tests drive randomized certain×certain
// and certain×uncertain pairs through both and require exact equality —
// including float64 equality for the probabilistic bounds, whose summation
// order the id kernels must preserve.

// ── String reference implementations ────────────────────────────────────────

func refLambdaV(a, b *graph.Graph) int {
	bp := matching.NewBipartite(a.NumVertices(), b.NumVertices())
	for u := 0; u < a.NumVertices(); u++ {
		for v := 0; v < b.NumVertices(); v++ {
			if graph.LabelsMatch(a.VertexLabel(u), b.VertexLabel(v)) {
				bp.AddEdge(u, v)
			}
		}
	}
	return bp.MaxMatchingSize()
}

func refLambdaVUncertain(q *graph.Graph, g *ugraph.Graph) int {
	bp := matching.NewBipartite(q.NumVertices(), g.NumVertices())
	for u := 0; u < q.NumVertices(); u++ {
		ql := q.VertexLabel(u)
		for v := 0; v < g.NumVertices(); v++ {
			for _, l := range g.Labels(v) {
				if graph.LabelsMatch(ql, l.Name) {
					bp.AddEdge(u, v)
					break
				}
			}
		}
	}
	return bp.MaxMatchingSize()
}

func refMultisetCommon(la map[string]int, wa, totalA int, lb map[string]int, wb, totalB int) int {
	common := 0
	for l, ca := range la {
		if cb := lb[l]; cb < ca {
			common += cb
		} else {
			common += ca
		}
	}
	leftA := totalA - wa - common
	leftB := totalB - wb - common
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

func refLambdaE(a, b *graph.Graph) int {
	la, wa := a.EdgeLabelMultiset()
	lb, wb := b.EdgeLabelMultiset()
	return refMultisetCommon(la, wa, a.NumEdges(), lb, wb, b.NumEdges())
}

func refLambdaEUncertain(q *graph.Graph, g *ugraph.Graph) int {
	la, wa := q.EdgeLabelMultiset()
	lb, wb := g.EdgeLabelMultiset()
	return refMultisetCommon(la, wa, q.NumEdges(), lb, wb, g.NumEdges())
}

func refCSSLowerBound(q, g *graph.Graph) int {
	lamV := refLambdaV(q, g)
	lamE := refLambdaE(q, g)
	oriented := func(small, big *graph.Graph) int {
		dif := degreeDistanceSeq(small.DegreeSequence(), big.DegreeSequence())
		lb := big.NumVertices() + big.NumEdges() - lamE + (dif+1)/2 - lamV
		if lb < 0 {
			lb = 0
		}
		return lb
	}
	switch {
	case q.NumVertices() < g.NumVertices():
		return oriented(q, g)
	case q.NumVertices() > g.NumVertices():
		return oriented(g, q)
	default:
		a := oriented(q, g)
		if b := oriented(g, q); b > a {
			return b
		}
		return a
	}
}

func refCSSConstant(q *graph.Graph, g *ugraph.Graph) int {
	lamE := refLambdaEUncertain(q, g)
	qd, gd := q.DegreeSequence(), g.DegreeSequence()
	oriented := func(small, big []int, bigV, bigE int) int {
		return bigV + bigE - lamE + (degreeDistanceSeq(small, big)+1)/2
	}
	switch {
	case q.NumVertices() < g.NumVertices():
		return oriented(qd, gd, g.NumVertices(), g.NumEdges())
	case q.NumVertices() > g.NumVertices():
		return oriented(gd, qd, q.NumVertices(), q.NumEdges())
	default:
		a := oriented(qd, gd, g.NumVertices(), g.NumEdges())
		if b := oriented(gd, qd, q.NumVertices(), q.NumEdges()); b > a {
			return b
		}
		return a
	}
}

func refCSSLowerBoundUncertain(q *graph.Graph, g *ugraph.Graph) int {
	lb := refCSSConstant(q, g) - refLambdaVUncertain(q, g)
	if lb < 0 {
		lb = 0
	}
	return lb
}

func refExpectedCommonLabels(q *graph.Graph, g *ugraph.Graph) float64 {
	qSet := make(map[string]bool)
	wilds := 0
	for _, l := range q.VertexLabels() {
		if graph.IsWildcard(l) {
			wilds++
		} else {
			qSet[l] = true
		}
	}
	_ = wilds
	ez := 0.0
	for v := 0; v < g.NumVertices(); v++ {
		for _, l := range g.Labels(v) {
			if graph.IsWildcard(l.Name) || qSet[l.Name] {
				ez += l.P
			}
		}
	}
	return ez
}

func refQueryWildcards(q *graph.Graph) int {
	w := 0
	for _, l := range q.VertexLabels() {
		if graph.IsWildcard(l) {
			w++
		}
	}
	return w
}

func refSimilarityUpperBound(q *graph.Graph, g *ugraph.Graph, tau int) float64 {
	mass := g.TotalMass()
	denom := float64(refCSSConstant(q, g) - tau - refQueryWildcards(q))
	if denom <= 0 {
		return mass
	}
	ub := refExpectedCommonLabels(q, g) / denom
	if ub > mass {
		return mass
	}
	if ub < 0 {
		return 0
	}
	return ub
}

func refTotalProbabilityUpperBound(q *graph.Graph, g *ugraph.Graph, tau int) float64 {
	if refCSSLowerBoundUncertain(q, g) > tau {
		return 0
	}
	v := g.SplitVertex()
	if v < 0 {
		return refSimilarityUpperBound(q, g, tau)
	}
	ub := 0.0
	for i := range g.Labels(v) {
		cond, mass := g.Condition(v, []int{i})
		if refCSSLowerBoundUncertain(q, cond) > tau {
			continue
		}
		b := refSimilarityUpperBound(q, cond, tau)
		if b > mass {
			b = mass
		}
		ub += b
	}
	if plain := refSimilarityUpperBound(q, g, tau); plain < ub {
		return plain
	}
	return ub
}

func refGroupUpperBound(q *graph.Graph, gr ugraph.Group, tau int) float64 {
	if refCSSLowerBoundUncertain(q, gr.G) > tau {
		return 0
	}
	ub := refSimilarityUpperBound(q, gr.G, tau)
	if ub > gr.Mass {
		return gr.Mass
	}
	return ub
}

// String references for the certain-graph baseline filters.

func refLMLowerBound(q, g *graph.Graph) int {
	lb := max(q.NumVertices(), g.NumVertices()) - refLambdaV(q, g) +
		max(q.NumEdges(), g.NumEdges()) - refLambdaE(q, g)
	if lb < 0 {
		lb = 0
	}
	return lb
}

type refStar struct {
	root   string
	leaves []string
}

func refStars(g *graph.Graph) []refStar {
	out := make([]refStar, g.NumVertices())
	for v := range out {
		out[v].root = g.VertexLabel(v)
	}
	for _, e := range g.Edges() {
		out[e.From].leaves = append(out[e.From].leaves, g.VertexLabel(e.To))
		out[e.To].leaves = append(out[e.To].leaves, g.VertexLabel(e.From))
	}
	return out
}

func refSortedCommon(a, b []string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	bp := matching.NewBipartite(len(a), len(b))
	for i, la := range a {
		for j, lb := range b {
			if graph.LabelsMatch(la, lb) {
				bp.AddEdge(i, j)
			}
		}
	}
	return bp.MaxMatchingSize()
}

func refStarDistance(a, b refStar) int {
	d := 0
	if !graph.LabelsMatch(a.root, b.root) {
		d++
	}
	d += abs(len(a.leaves) - len(b.leaves))
	d += max(len(a.leaves), len(b.leaves)) - refSortedCommon(a.leaves, b.leaves)
	return d
}

func refCStarLowerBound(q, g *graph.Graph) int {
	sq, sg := refStars(q), refStars(g)
	n := max(len(sq), len(sg))
	if n == 0 {
		return 0
	}
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			var d int
			switch {
			case i < len(sq) && j < len(sg):
				d = refStarDistance(sq[i], sg[j])
			case i < len(sq):
				d = 1 + 2*len(sq[i].leaves)
			case j < len(sg):
				d = 1 + 2*len(sg[j].leaves)
			}
			cost[i][j] = float64(d)
		}
	}
	total := matching.AssignmentLowerBound(cost)
	maxDeg := 1
	for _, d := range append(q.Degrees(), g.Degrees()...) {
		if d > maxDeg {
			maxDeg = d
		}
	}
	return int(total) / max(4, maxDeg+1)
}

func refPathGramLowerBound(q, g *graph.Graph) int {
	bp := matching.NewBipartite(q.NumEdges(), g.NumEdges())
	for i, qe := range q.Edges() {
		for j, ge := range g.Edges() {
			if graph.LabelsMatch(qe.Label, ge.Label) &&
				graph.LabelsMatch(q.VertexLabel(qe.From), g.VertexLabel(ge.From)) &&
				graph.LabelsMatch(q.VertexLabel(qe.To), g.VertexLabel(ge.To)) {
				bp.AddEdge(i, j)
			}
		}
	}
	common := bp.MaxMatchingSize()
	diff := max(q.NumEdges(), g.NumEdges()) - common
	if diff <= 0 {
		return 0
	}
	maxDeg := 1
	for _, d := range append(q.Degrees(), g.Degrees()...) {
		if d > maxDeg {
			maxDeg = d
		}
	}
	return (diff + maxDeg - 1) / maxDeg
}

func refEdgeCompatible(q *graph.Graph, qe graph.Edge, g *graph.Graph, ge graph.Edge) bool {
	return graph.LabelsMatch(qe.Label, ge.Label) &&
		graph.LabelsMatch(q.VertexLabel(qe.From), g.VertexLabel(ge.From)) &&
		graph.LabelsMatch(q.VertexLabel(qe.To), g.VertexLabel(ge.To))
}

func refParsLowerBound(q, g *graph.Graph) int {
	missing := 0
	for _, frag := range partitionEdges(q) {
		e := frag[0]
		ok := false
	scan:
		for _, ge := range g.Edges() {
			if !refEdgeCompatible(q, e, g, ge) {
				continue
			}
			if len(frag) == 1 {
				ok = true
				break
			}
			f := frag[1]
			for _, gf := range g.Edges() {
				if !refEdgeCompatible(q, f, g, gf) {
					continue
				}
				if identificationPreserved(
					[4]int{e.From, e.To, f.From, f.To},
					[4]int{ge.From, ge.To, gf.From, gf.To}) {
					ok = true
					break scan
				}
			}
		}
		if !ok {
			missing++
		}
	}
	return missing
}

func refSegosLowerBound(q, g *graph.Graph, tau int) int {
	lb := CountLowerBound(q, g)
	if lb > tau {
		return lb
	}
	if s := refCStarLowerBound(q, g); s > lb {
		lb = s
	}
	return lb
}

// ── Generators ──────────────────────────────────────────────────────────────

// equivCertain draws a random certain graph with several distinct wildcard
// spellings, which the dictionary collapses to one reserved id — exactly the
// case where an unsound id mapping would diverge from LabelsMatch.
func equivCertain(rng *rand.Rand, n, e int) *graph.Graph {
	labels := []string{"A", "B", "C", "D", "?x", "?y", "?"}
	elabels := []string{"p", "q", "r", "?e"}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddVertex(labels[rng.Intn(len(labels))])
	}
	for t := 0; t < e*3 && g.NumEdges() < e; t++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, elabels[rng.Intn(len(elabels))])
	}
	return g
}

// equivUncertain draws a random uncertain graph with mixed wildcard
// spellings among the candidate labels.
func equivUncertain(rng *rand.Rand, n, e, maxLabels int) *ugraph.Graph {
	names := []string{"A", "B", "C", "D", "E", "?x", "?y"}
	g := ugraph.New(n)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(maxLabels)
		perm := rng.Perm(len(names))[:k]
		var ls []ugraph.Label
		rest := 1.0
		for j, pi := range perm {
			p := rest
			if j < k-1 {
				p = rest * (0.3 + 0.4*rng.Float64())
			}
			ls = append(ls, ugraph.Label{Name: names[pi], P: p})
			rest -= p
		}
		g.AddVertex(ls...)
	}
	elabels := []string{"p", "q", "?e"}
	for t := 0; t < e*3 && g.NumEdges() < e; t++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		_ = g.AddEdge(u, v, elabels[rng.Intn(len(elabels))])
	}
	return g
}

// ── Equivalence properties ──────────────────────────────────────────────────

func TestCertainKernelsMatchStringReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for it := 0; it < 200; it++ {
		q := equivCertain(rng, 2+rng.Intn(6), rng.Intn(10))
		g := equivCertain(rng, 2+rng.Intn(6), rng.Intn(10))
		tau := rng.Intn(4)
		checks := []struct {
			name      string
			got, want int
		}{
			{"LambdaV", LambdaV(q, g), refLambdaV(q, g)},
			{"LambdaE", LambdaE(q, g), refLambdaE(q, g)},
			{"CSSLowerBound", CSSLowerBound(q, g), refCSSLowerBound(q, g)},
			{"LMLowerBound", LMLowerBound(q, g), refLMLowerBound(q, g)},
			{"CStarLowerBound", CStarLowerBound(q, g), refCStarLowerBound(q, g)},
			{"PathGramLowerBound", PathGramLowerBound(q, g), refPathGramLowerBound(q, g)},
			{"ParsLowerBound", ParsLowerBound(q, g), refParsLowerBound(q, g)},
			{"SegosLowerBound", SegosLowerBound(q, g, tau), refSegosLowerBound(q, g, tau)},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Fatalf("iteration %d: %s = %d, string reference = %d\nq: %v\ng: %v",
					it, c.name, c.got, c.want, q, g)
			}
		}
	}
}

func TestUncertainKernelsMatchStringReference(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for it := 0; it < 150; it++ {
		q := equivCertain(rng, 2+rng.Intn(5), rng.Intn(8))
		g := equivUncertain(rng, 2+rng.Intn(5), rng.Intn(8), 3)
		tau := rng.Intn(4)
		qs, gs := NewQSig(q), NewGSig(g)

		intChecks := []struct {
			name      string
			got, want int
		}{
			{"LambdaVUncertain", LambdaVUncertainSig(qs, gs), refLambdaVUncertain(q, g)},
			{"LambdaEUncertain", LambdaEUncertainSig(qs, gs), refLambdaEUncertain(q, g)},
			{"CSSConstant", CSSConstantSig(qs, gs), refCSSConstant(q, g)},
			{"CSSLowerBoundUncertain", CSSLowerBoundUncertainSig(qs, gs), refCSSLowerBoundUncertain(q, g)},
		}
		for _, c := range intChecks {
			if c.got != c.want {
				t.Fatalf("iteration %d: %s = %d, string reference = %d\nq: %v\ng: %v",
					it, c.name, c.got, c.want, q, g)
			}
		}

		floatChecks := []struct {
			name      string
			got, want float64
		}{
			{"ExpectedCommonLabels", ExpectedCommonLabelsSig(qs, gs), refExpectedCommonLabels(q, g)},
			{"SimilarityUpperBound", SimilarityUpperBoundSig(qs, gs, tau), refSimilarityUpperBound(q, g, tau)},
			{"TotalProbabilityUpperBound", TotalProbabilityUpperBoundSig(qs, gs, tau), refTotalProbabilityUpperBound(q, g, tau)},
		}
		for _, c := range floatChecks {
			if c.got != c.want { // bit-identical, not approximately equal
				t.Fatalf("iteration %d: %s = %v, string reference = %v\nq: %v\ng: %v",
					it, c.name, c.got, c.want, q, g)
			}
		}

		for _, gr := range g.PartitionWorlds(3) {
			got := GroupUpperBoundSig(qs, NewGSig(gr.G), gr.Mass, tau)
			want := refGroupUpperBound(q, gr, tau)
			if got != want {
				t.Fatalf("iteration %d: GroupUpperBound = %v, string reference = %v", it, got, want)
			}
		}
	}
}

func TestWorldLowerBoundMatchesStringReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for it := 0; it < 60; it++ {
		q := equivCertain(rng, 2+rng.Intn(4), rng.Intn(6))
		g := equivUncertain(rng, 2+rng.Intn(4), rng.Intn(6), 2)
		qs, gs := NewQSig(q), NewGSig(g)
		var pv PairVerifier
		pv.Reset(qs, gs)
		g.Worlds(func(w *graph.Graph, _ float64) bool {
			if got, want := pv.WorldLowerBound(w), refCSSLowerBound(q, w); got != want {
				t.Fatalf("iteration %d: WorldLowerBound = %d, string CSSLowerBound = %d\nq: %v\nw: %v",
					it, got, want, q, w)
			}
			return true
		})
	}
}

// TestRelaxedBaselineChainMatchesReference evaluates each baseline bound
// against the memoized relaxation (GSig.Relaxed), the certain graph a
// baseline bounds an uncertain pair on, and checks its value against the
// string reference on the same relaxed graph.
func TestRelaxedBaselineChainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	refs := map[string]func(q, g *graph.Graph, tau int) int{
		"lm":        func(q, g *graph.Graph, _ int) int { return refLMLowerBound(q, g) },
		"count":     func(q, g *graph.Graph, _ int) int { return CountLowerBound(q, g) },
		"cstar":     func(q, g *graph.Graph, _ int) int { return refCStarLowerBound(q, g) },
		"path-gram": func(q, g *graph.Graph, _ int) int { return refPathGramLowerBound(q, g) },
		"pars":      func(q, g *graph.Graph, _ int) int { return refParsLowerBound(q, g) },
		"segos":     refSegosLowerBound,
	}
	for it := 0; it < 60; it++ {
		q := equivCertain(rng, 2+rng.Intn(5), rng.Intn(8))
		g := equivUncertain(rng, 2+rng.Intn(5), rng.Intn(8), 3)
		tau := rng.Intn(3)
		r := NewGSig(g).Relaxed()
		for _, b := range baselines {
			if got, want := b.lb(q, r, tau), refs[b.name](q, r, tau); got != want {
				t.Fatalf("iteration %d: bound %q = %d on the relaxation, string reference = %d", it, b.name, got, want)
			}
		}
	}
}
