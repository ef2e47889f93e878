package filter

import (
	"math/rand"
	"testing"

	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

func TestUnionConcreteLabelsMatchesManualScan(t *testing.T) {
	u := ugraph.New(3)
	u.AddVertex(ugraph.Label{Name: "a", P: 0.6}, ugraph.Label{Name: "b", P: 0.4})
	u.AddVertex(ugraph.Label{Name: "?x", P: 0.7}, ugraph.Label{Name: "c", P: 0.3})
	u.AddVertex(ugraph.Label{Name: "a", P: 1})
	var set graph.LabelSet
	wilds := UnionConcreteLabels(u, &set)
	if wilds != 1 {
		t.Fatalf("wilds = %d, want 1", wilds)
	}
	for _, name := range []string{"a", "b", "c"} {
		if !set.Has(graph.InternLabel(name)) {
			t.Fatalf("union set missing %q", name)
		}
	}
	if set.Len() != 3 {
		t.Fatalf("union set has %d labels, want 3", set.Len())
	}
}

// TestLambdaVCountedMatchesDefinition pins the count on a hand-worked pair:
// q = {a, a, a, b, ?}, g = {a|c, c, c|?, b}. Wq = 1, Wg = 1, min(3, n_g(a) = 1)
// = 1 and min(1, n_g(b) = 1) = 1, so the sum is 4, below both vertex counts.
func TestLambdaVCountedMatchesDefinition(t *testing.T) {
	q := graph.New(5)
	for _, l := range []string{"a", "a", "a", "b", "?x"} {
		q.AddVertex(l)
	}
	g := ugraph.New(4)
	g.AddVertex(ugraph.Label{Name: "a", P: 0.5}, ugraph.Label{Name: "c", P: 0.5})
	g.AddVertex(ugraph.Label{Name: "c", P: 1})
	g.AddVertex(ugraph.Label{Name: "c", P: 0.5}, ugraph.Label{Name: "?y", P: 0.5})
	g.AddVertex(ugraph.Label{Name: "b", P: 1})
	qs, gs := NewQSig(q), NewGSig(g)
	if got := LambdaVCounted(qs, gs); got != 4 {
		t.Fatalf("λVcount = %d, want 4", got)
	}
	// A matching reaches it: a → a|c, a → c|? (the wildcard candidate),
	// b → b and ? → c.
	if got := LambdaVUncertainSig(qs, gs); got != 4 {
		t.Fatalf("λV = %d, want 4", got)
	}
}

// wildHeavyCertain draws a query whose vertices are mostly variables.
func wildHeavyCertain(rng *rand.Rand, n, e int) *graph.Graph {
	labels := []string{"A", "B", "?x", "?y", "?"}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		l := labels[2+rng.Intn(3)]
		if rng.Intn(4) == 0 {
			l = labels[rng.Intn(2)]
		}
		g.AddVertex(l)
	}
	for t := 0; t < e*3 && g.NumEdges() < e; t++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, "p")
		}
	}
	return g
}

// wildHeavyUncertain draws an uncertain graph most of whose vertices carry a
// wildcard candidate next to concrete ones.
func wildHeavyUncertain(rng *rand.Rand, n, e int) *ugraph.Graph {
	g := ugraph.New(n)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			g.AddVertex(ugraph.Label{Name: "?w", P: 1})
		case 1:
			g.AddVertex(ugraph.Label{Name: "A", P: 1})
		default:
			g.AddVertex(ugraph.Label{Name: "B", P: 0.6}, ugraph.Label{Name: "?w", P: 0.4})
		}
	}
	for t := 0; t < e*3 && g.NumEdges() < e; t++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = g.AddEdge(u, v, "p")
		}
	}
	return g
}

// TestCountedCSSBoundSound checks the counted form of Theorem 3 against the
// exact one on every pair it draws: λVcount ≥ λV (LambdaVUncertainSig) and
// CSSLowerBoundCounted ≤ CSSLowerBoundUncertainSig, on random pairs, pairs
// wildcard-heavy on both sides, multi-candidate pairs (up to four candidate
// labels per vertex), and pairs with an empty side. The counted bound must
// also allocate nothing once the signatures exist.
func TestCountedCSSBoundSound(t *testing.T) {
	empty := func(*rand.Rand) *graph.Graph { return graph.New(0) }
	emptyU := func(*rand.Rand) *ugraph.Graph { return ugraph.New(0) }
	corpora := []struct {
		name string
		q    func(*rand.Rand) *graph.Graph
		g    func(*rand.Rand) *ugraph.Graph
	}{
		{"random",
			func(r *rand.Rand) *graph.Graph { return randomCertain(r, 1+r.Intn(6), r.Intn(8)) },
			func(r *rand.Rand) *ugraph.Graph { return randomUncertain(r, 1+r.Intn(6), r.Intn(8), 2) }},
		{"wildcard-heavy",
			func(r *rand.Rand) *graph.Graph { return wildHeavyCertain(r, 1+r.Intn(6), r.Intn(8)) },
			func(r *rand.Rand) *ugraph.Graph { return wildHeavyUncertain(r, 1+r.Intn(6), r.Intn(8)) }},
		{"multi-candidate",
			func(r *rand.Rand) *graph.Graph { return equivCertain(r, 1+r.Intn(7), r.Intn(10)) },
			func(r *rand.Rand) *ugraph.Graph { return equivUncertain(r, 1+r.Intn(7), r.Intn(10), 4) }},
		{"empty-q", empty,
			func(r *rand.Rand) *ugraph.Graph { return randomUncertain(r, 1+r.Intn(4), r.Intn(4), 2) }},
		{"empty-g",
			func(r *rand.Rand) *graph.Graph { return randomCertain(r, 1+r.Intn(4), r.Intn(4)) }, emptyU},
		{"empty-both", empty, emptyU},
	}
	rng := rand.New(rand.NewSource(97))
	for _, c := range corpora {
		for it := 0; it < 400; it++ {
			qs, gs := NewQSig(c.q(rng)), NewGSig(c.g(rng))
			count, lamV := LambdaVCounted(qs, gs), LambdaVUncertainSig(qs, gs)
			if count < lamV {
				t.Fatalf("%s #%d: λVcount = %d < λV = %d\nq: %v\ng: %v", c.name, it, count, lamV, qs.G, gs.G)
			}
			counted, exact := CSSLowerBoundCounted(qs, gs), CSSLowerBoundUncertainSig(qs, gs)
			if counted < 0 || counted > exact {
				t.Fatalf("%s #%d: counted bound %d outside [0, exact CSS bound %d]\nq: %v\ng: %v",
					c.name, it, counted, exact, qs.G, gs.G)
			}
			if it == 0 {
				if a := testing.AllocsPerRun(20, func() { CSSLowerBoundCounted(qs, gs) }); a != 0 {
					t.Fatalf("%s: CSSLowerBoundCounted allocated %v allocs/op, want 0", c.name, a)
				}
			}
		}
	}
}
