package filter

import (
	"math/rand"
	"slices"
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
	if got := LambdaVCounted(qs, &gs.GCounts); got != 4 {
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
			count, lamV := LambdaVCounted(qs, &gs.GCounts), LambdaVUncertainSig(qs, gs)
			if count < lamV {
				t.Fatalf("%s #%d: λVcount = %d < λV = %d\nq: %v\ng: %v", c.name, it, count, lamV, qs.G, gs.G)
			}
			counted, exact := CSSLowerBoundCounted(qs, &gs.GCounts), CSSLowerBoundUncertainSig(qs, gs)
			if counted < 0 || counted > exact {
				t.Fatalf("%s #%d: counted bound %d outside [0, exact CSS bound %d]\nq: %v\ng: %v",
					c.name, it, counted, exact, qs.G, gs.G)
			}
			if it == 0 {
				if a := testing.AllocsPerRun(20, func() { CSSLowerBoundCounted(qs, &gs.GCounts) }); a != 0 {
					t.Fatalf("%s: CSSLowerBoundCounted allocated %v allocs/op, want 0", c.name, a)
				}
			}
		}
	}
}

// TestGCountsFillMatchesDefinition fills one GCounts over a stream of random
// and wildcard-heavy graphs, as the index sweep's scratch is, and requires
// each fill to equal the definitions it replaces in the sweep: the degree
// sequence, the edge label multiset, and, per concrete label, the number of
// vertices carrying it among their candidates (the GSig's per-label vertex
// lists, which must hold those vertices in vertex order) and the vertices
// with a wildcard candidate. A fill of a graph no larger than an earlier
// one allocates nothing.
func TestGCountsFillMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var c GCounts
	for it := 0; it < 300; it++ {
		var g *ugraph.Graph
		switch {
		case it%50 == 0:
			g = ugraph.New(0)
		case it%2 == 0:
			g = randomUncertain(rng, 1+rng.Intn(8), rng.Intn(12), 4)
		default:
			g = wildHeavyUncertain(rng, 1+rng.Intn(6), rng.Intn(8))
		}
		c.Fill(g)
		gs := NewGSig(g)
		eLabels, eWilds := g.EdgeLabelIDMultiset()
		switch {
		case c.NumV != g.NumVertices() || c.NumE != g.NumEdges():
			t.Fatalf("#%d: sizes %d/%d, want %d/%d", it, c.NumV, c.NumE, g.NumVertices(), g.NumEdges())
		case !slices.Equal(c.DegSeq, g.DegreeSequence()):
			t.Fatalf("#%d: degree sequence %v, want %v", it, c.DegSeq, g.DegreeSequence())
		case !slices.Equal(c.ELabels, eLabels) || c.EWilds != eWilds:
			t.Fatalf("#%d: edge labels %v/%d, want %v/%d", it, c.ELabels, c.EWilds, eLabels, eWilds)
		case c.VWilds != len(gs.wildVerts):
			t.Fatalf("#%d: %d wildcard vertices, want %d", it, c.VWilds, len(gs.wildVerts))
		}
		n := 0
		for i, lc := range c.VCounts {
			if i > 0 && c.VCounts[i-1].ID >= lc.ID {
				t.Fatalf("#%d: label counts not sorted by id: %v", it, c.VCounts)
			}
			var carriers []int32
			for v := 0; v < g.NumVertices(); v++ {
				for _, id := range g.LabelIDs(v) {
					if id == lc.ID {
						carriers = append(carriers, int32(v))
					}
				}
			}
			if vs := gs.labelVertices(lc.ID); int(lc.N) != len(vs) || !slices.Equal(vs, carriers) {
				t.Fatalf("#%d: label %d on %d vertices, listed %v, want %v", it, lc.ID, lc.N, vs, carriers)
			}
			n += int(lc.N)
		}
		want := 0
		for v := 0; v < g.NumVertices(); v++ {
			for _, id := range g.LabelIDs(v) {
				if id != graph.WildcardID {
					want++
				}
			}
		}
		if n != want {
			t.Fatalf("#%d: %d (vertex, label) records, want %d", it, n, want)
		}
	}
	big := randomUncertain(rng, 8, 12, 4)
	c.Fill(big)
	if a := testing.AllocsPerRun(20, func() { c.Fill(big) }); a != 0 {
		t.Fatalf("GCounts.Fill allocated %v allocs/op on a reused buffer, want 0", a)
	}
}
