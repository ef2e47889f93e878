package filter

import (
	"math"
	"math/rand"
	"testing"

	"simjoin/internal/ged"
	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// randomCertain makes a small random directed graph.
func randomCertain(rng *rand.Rand, n, e int) *graph.Graph {
	labels := []string{"A", "B", "C", "D", "?x"}
	elabels := []string{"p", "q", "r"}
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

// randomUncertain makes a small random uncertain graph with a bounded number
// of possible worlds.
func randomUncertain(rng *rand.Rand, n, e, maxLabels int) *ugraph.Graph {
	names := []string{"A", "B", "C", "D", "E"}
	g := ugraph.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			g.AddVertex(ugraph.Label{Name: "?x", P: 1})
			continue
		}
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
	elabels := []string{"p", "q"}
	for t := 0; t < e*3 && g.NumEdges() < e; t++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		_ = g.AddEdge(u, v, elabels[rng.Intn(len(elabels))])
	}
	return g
}

// exactSimP enumerates all possible worlds and sums the probabilities of
// those within edit distance tau of q — the ground truth of Def. 6.
func exactSimP(q *graph.Graph, g *ugraph.Graph, tau int) float64 {
	sum := 0.0
	g.Worlds(func(w *graph.Graph, p float64) bool {
		if _, ok := ged.WithinThreshold(q, w, tau); ok {
			sum += p
		}
		return true
	})
	return sum
}

func TestDegreeDistance(t *testing.T) {
	// q: path of 3 (degrees 2,1,1); g: star of 4 (3,1,1,1).
	q := graph.New(3)
	for i := 0; i < 3; i++ {
		q.AddVertex("A")
	}
	q.MustAddEdge(0, 1, "p")
	q.MustAddEdge(1, 2, "p")
	g := graph.New(4)
	for i := 0; i < 4; i++ {
		g.AddVertex("A")
	}
	g.MustAddEdge(0, 1, "p")
	g.MustAddEdge(0, 2, "p")
	g.MustAddEdge(0, 3, "p")
	// sorted q: [2,1,1], sorted g: [3,1,1,1]; dif = (2⊖3)+(1⊖1)+(1⊖1) = 0.
	if d := DegreeDistance(q, g); d != 0 {
		t.Errorf("DegreeDistance = %d, want 0", d)
	}
	// Reverse direction picks the smaller graph automatically.
	if d := DegreeDistance(g, q); d != 0 {
		t.Errorf("DegreeDistance swapped = %d, want 0", d)
	}
	// Higher degrees on the small side do count.
	h := graph.New(3)
	for i := 0; i < 3; i++ {
		h.AddVertex("A")
	}
	h.MustAddEdge(0, 1, "p")
	h.MustAddEdge(0, 2, "p")
	h.MustAddEdge(1, 2, "p")
	// h degrees [2,2,2] vs g [3,1,1,1]: dif = 0+1+1 = 2.
	if d := DegreeDistance(h, g); d != 2 {
		t.Errorf("DegreeDistance(h,g) = %d, want 2", d)
	}
}

func TestLambdaV(t *testing.T) {
	q := graph.New(3)
	q.AddVertex("A")
	q.AddVertex("B")
	q.AddVertex("?x")
	g := graph.New(3)
	g.AddVertex("A")
	g.AddVertex("C")
	g.AddVertex("D")
	// A-A, ?x absorbs one of C/D => 2.
	if l := LambdaV(q, g); l != 2 {
		t.Errorf("LambdaV = %d, want 2", l)
	}
}

func TestLambdaVUncertain(t *testing.T) {
	q := graph.New(2)
	q.AddVertex("Artist")
	q.AddVertex("University")
	g := ugraph.New(2)
	g.AddVertex(ugraph.Label{Name: "Politician", P: 1})
	g.AddVertex(ugraph.Label{Name: "University", P: 0.8}, ugraph.Label{Name: "Company", P: 0.2})
	if l := LambdaVUncertain(q, g); l != 1 {
		t.Errorf("LambdaVUncertain = %d, want 1", l)
	}
	// The Def. 10 matching is an upper bound across all worlds.
	g.Worlds(func(w *graph.Graph, _ float64) bool {
		if lw := LambdaV(q, w); lw > 1 {
			t.Errorf("world λV = %d exceeds uncertain bound 1", lw)
		}
		return true
	})
}

func TestLambdaE(t *testing.T) {
	q := graph.New(3)
	q.AddVertex("A")
	q.AddVertex("B")
	q.AddVertex("C")
	q.MustAddEdge(0, 1, "type")
	q.MustAddEdge(1, 2, "type")
	g := graph.New(3)
	g.AddVertex("A")
	g.AddVertex("B")
	g.AddVertex("C")
	g.MustAddEdge(0, 1, "type")
	g.MustAddEdge(1, 2, "spouse")
	if l := LambdaE(q, g); l != 1 {
		t.Errorf("LambdaE = %d, want 1", l)
	}
	// Wildcard edge absorbs one more.
	g2 := graph.New(3)
	g2.AddVertex("A")
	g2.AddVertex("B")
	g2.AddVertex("C")
	g2.MustAddEdge(0, 1, "type")
	g2.MustAddEdge(1, 2, "?e")
	if l := LambdaE(q, g2); l != 2 {
		t.Errorf("LambdaE with wildcard = %d, want 2", l)
	}
}

func TestCSSBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		q := randomCertain(rng, 1+rng.Intn(5), rng.Intn(5))
		g := randomCertain(rng, 1+rng.Intn(5), rng.Intn(5))
		lb := CSSLowerBound(q, g)
		d := ged.Distance(q, g)
		if lb > d {
			t.Fatalf("CSS bound %d exceeds true distance %d\nq=%v\ng=%v", lb, d, q, g)
		}
	}
}

func TestTheorem2CSSDominatesLM(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		q := randomCertain(rng, 1+rng.Intn(6), rng.Intn(7))
		g := randomCertain(rng, 1+rng.Intn(6), rng.Intn(7))
		css, lm := CSSLowerBound(q, g), LMLowerBound(q, g)
		if css < lm {
			t.Fatalf("Theorem 2 violated: CSS=%d < LM=%d\nq=%v\ng=%v", css, lm, q, g)
		}
	}
}

func TestCSSUncertainUniformOverWorlds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 120; i++ {
		q := randomCertain(rng, 1+rng.Intn(5), rng.Intn(5))
		g := randomUncertain(rng, 1+rng.Intn(4), rng.Intn(4), 2)
		lb := CSSLowerBoundUncertain(q, g)
		g.Worlds(func(w *graph.Graph, _ float64) bool {
			if d := ged.Distance(q, w); lb > d {
				t.Fatalf("uncertain CSS bound %d exceeds ged(q,pw)=%d\nq=%v\npw=%v", lb, d, q, w)
			}
			return true
		})
	}
}

func TestSimilarityUpperBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 120; i++ {
		q := randomCertain(rng, 1+rng.Intn(5), rng.Intn(5))
		g := randomUncertain(rng, 1+rng.Intn(4), rng.Intn(4), 3)
		tau := rng.Intn(4)
		ub := SimilarityUpperBound(q, g, tau)
		exact := exactSimP(q, g, tau)
		if ub < exact-1e-9 {
			t.Fatalf("Theorem 4 bound %v below exact SimP %v (tau=%d)\nq=%v\ng=%v", ub, exact, tau, q, g)
		}
		if ub < 0 || ub > 1+1e-9 {
			t.Fatalf("bound %v outside [0,1]", ub)
		}
	}
}

func TestGroupBoundsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 80; i++ {
		q := randomCertain(rng, 1+rng.Intn(5), rng.Intn(5))
		g := randomUncertain(rng, 1+rng.Intn(4), rng.Intn(4), 3)
		tau := rng.Intn(4)
		groups := g.PartitionWorlds(1 + rng.Intn(5))
		sum := 0.0
		for _, gr := range groups {
			sum += GroupUpperBound(q, gr, tau)
		}
		exact := exactSimP(q, g, tau)
		if sum < exact-1e-9 {
			t.Fatalf("grouped bound %v below exact SimP %v (tau=%d, %d groups)", sum, exact, tau, len(groups))
		}
		// Grouping should never be looser than necessary: it must stay a
		// valid bound but is allowed to be tighter than the single-group one.
		single := SimilarityUpperBound(q, g, tau)
		if sum > single+1e-9 && CSSLowerBoundUncertain(q, g) <= tau {
			// Groups can individually cap at mass; the sum may only exceed
			// the single bound by rounding.
			_ = single
		}
	}
}

func TestBaselineBoundsAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	type bound struct {
		name string
		fn   func(q, g *graph.Graph) int
	}
	bounds := []bound{
		{"LM", LMLowerBound},
		{"Count", CountLowerBound},
		{"CStar", CStarLowerBound},
		{"PathGram", PathGramLowerBound},
		{"Pars", ParsLowerBound},
		{"Segos", func(q, g *graph.Graph) int { return SegosLowerBound(q, g, 3) }},
	}
	for i := 0; i < 250; i++ {
		q := randomCertain(rng, 1+rng.Intn(5), rng.Intn(5))
		g := randomCertain(rng, 1+rng.Intn(5), rng.Intn(5))
		d := ged.Distance(q, g)
		for _, b := range bounds {
			if lb := b.fn(q, g); lb > d {
				t.Fatalf("%s bound %d exceeds distance %d\nq=%v\ng=%v", b.name, lb, d, q, g)
			}
		}
	}
}

func TestIdenticalGraphsAllBoundsZero(t *testing.T) {
	g := randomCertain(rand.New(rand.NewSource(5)), 5, 6)
	for name, lb := range map[string]int{
		"CSS":      CSSLowerBound(g, g),
		"LM":       LMLowerBound(g, g),
		"Count":    CountLowerBound(g, g),
		"CStar":    CStarLowerBound(g, g),
		"PathGram": PathGramLowerBound(g, g),
		"Pars":     ParsLowerBound(g, g),
	} {
		if lb != 0 {
			t.Errorf("%s bound on identical graphs = %d, want 0", name, lb)
		}
	}
}

func TestCSSBoundPrunesDissimilar(t *testing.T) {
	// A 2-vertex and an 8-vertex graph are far apart; CSS must see it.
	q := graph.New(2)
	q.AddVertex("A")
	q.AddVertex("B")
	q.MustAddEdge(0, 1, "p")
	g := graph.New(8)
	for i := 0; i < 8; i++ {
		g.AddVertex("Z")
	}
	for i := 0; i+1 < 8; i++ {
		g.MustAddEdge(i, i+1, "z")
	}
	if lb := CSSLowerBound(q, g); lb < 8 {
		t.Errorf("CSS bound = %d, expected >= 8 for very dissimilar graphs", lb)
	}
}

func TestSimilarityUpperBoundPaperShape(t *testing.T) {
	// A query sharing no concrete labels with g and a large C should yield a
	// small bound, enabling the α-pruning of Example 4.
	q := graph.New(4)
	q.AddVertex("?x")
	q.AddVertex("Artist")
	q.AddVertex("University")
	q.AddVertex("Harvard")
	q.MustAddEdge(0, 1, "type")
	q.MustAddEdge(0, 3, "graduatedFrom")
	q.MustAddEdge(3, 2, "type")

	g := ugraph.New(6)
	g.AddVertex(ugraph.Label{Name: "?a", P: 1})
	g.AddVertex(ugraph.Label{Name: "Country", P: 1})
	g.AddVertex(ugraph.Label{Name: "Actor", P: 1})
	g.AddVertex(ugraph.Label{Name: "NBAStar", P: 0.6}, ugraph.Label{Name: "Professor", P: 0.3}, ugraph.Label{Name: "Actor2", P: 0.1})
	g.AddVertex(ugraph.Label{Name: "City", P: 1})
	g.AddVertex(ugraph.Label{Name: "State", P: 0.7}, ugraph.Label{Name: "City2", P: 0.3})
	g.MustAddEdge(0, 1, "birthPlace")
	g.MustAddEdge(0, 2, "type")
	g.MustAddEdge(0, 3, "spouse")
	g.MustAddEdge(3, 4, "birthPlace")
	g.MustAddEdge(4, 5, "locatedIn")

	ub := SimilarityUpperBound(q, g, 1)
	if ub >= 0.9 {
		t.Errorf("upper bound %v should prune at alpha=0.9 for dissimilar pair", ub)
	}
	if exact := exactSimP(q, g, 1); ub < exact {
		t.Errorf("bound %v below exact %v", ub, exact)
	}
}

func TestTotalProbabilityUpperBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tighter := 0
	for i := 0; i < 120; i++ {
		q := randomCertain(rng, 1+rng.Intn(5), rng.Intn(5))
		g := randomUncertain(rng, 1+rng.Intn(4), rng.Intn(4), 3)
		tau := rng.Intn(4)
		ub := TotalProbabilityUpperBound(q, g, tau)
		plain := SimilarityUpperBound(q, g, tau)
		exact := exactSimP(q, g, tau)
		if ub < exact-1e-9 {
			t.Fatalf("total-probability bound %v below exact %v (tau=%d)\nq=%v\ng=%v", ub, exact, tau, q, g)
		}
		if ub > plain+1e-9 && CSSLowerBoundUncertain(q, g) <= tau {
			t.Fatalf("total-probability bound %v looser than plain %v", ub, plain)
		}
		if ub < plain-1e-9 {
			tighter++
		}
	}
	if tighter == 0 {
		t.Error("conditioning never tightened the bound on 120 random pairs")
	}
}

func TestExpectedCommonLabelsUnnormalised(t *testing.T) {
	q := graph.New(1)
	q.AddVertex("A")
	g := ugraph.New(1)
	g.AddVertex(ugraph.Label{Name: "A", P: 0.5}, ugraph.Label{Name: "B", P: 0.5})
	if ez := ExpectedCommonLabels(q, g); math.Abs(ez-0.5) > 1e-12 {
		t.Errorf("E(Z) = %v, want 0.5", ez)
	}
	cond, _ := g.Condition(0, []int{0}) // keep A at raw 0.5
	if ez := ExpectedCommonLabels(q, cond); math.Abs(ez-0.5) > 1e-12 {
		t.Errorf("conditioned E(Z) = %v, want raw 0.5", ez)
	}
}
