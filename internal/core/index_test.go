package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"simjoin/internal/filter"
	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// sweepSorted is the index sweep of the one uncertain graph g at threshold
// tau, in ascending query order: the candidates a join's worker chains for g.
func sweepSorted(idx *Index, g *ugraph.Graph, tau int) []int {
	cands, _ := idx.Source([]*ugraph.Graph{g}).sweep(0, tau, new(indexScratch))
	slices.Sort(cands)
	return cands
}

func TestIndexCandidatesSound(t *testing.T) {
	// Every pair the index skips must be beyond tau for every world.
	d, u := smallWorkload(7, 10, 8)
	idx := BuildIndex(d)
	naive := naiveJoin(d, u, 2, 0.1)
	for gi, g := range u {
		cands := map[int]bool{}
		for _, qi := range sweepSorted(idx, g, 2) {
			cands[qi] = true
		}
		for key := range naive {
			if key[1] == gi && !cands[key[0]] {
				t.Fatalf("index dropped matching pair q=%d g=%d", key[0], key[1])
			}
		}
	}
}

func TestIndexEmpty(t *testing.T) {
	idx := BuildIndex(nil)
	if idx.Len() != 0 {
		t.Fatal("empty index not empty")
	}
	g := ugraph.New(1)
	g.AddVertex(ugraph.Label{Name: "A", P: 1})
	if c := sweepSorted(idx, g, 5); len(c) != 0 {
		t.Fatalf("candidates from empty index: %v", c)
	}
	pairs, st, err := JoinWith(context.Background(), idx.Source([]*ugraph.Graph{g}), Options{Tau: 1, Alpha: 0.5})
	if err != nil || len(pairs) != 0 || st.Pairs != 0 {
		t.Fatalf("empty indexed join: %v %v %v", pairs, st, err)
	}
}

// wildcardHeavyWorkload builds queries where most vertices are SPARQL
// variables (wildcards) — the worst case for the label screen, which must
// lean entirely on its wildcard-absorption terms.
func wildcardHeavyWorkload(seed int64, nd, nu int, wildFrac float64) ([]*graph.Graph, []*ugraph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"A", "B", "C"}
	d := make([]*graph.Graph, nd)
	for i := range d {
		n := 2 + rng.Intn(3)
		q := graph.New(n)
		for v := 0; v < n; v++ {
			if rng.Float64() < wildFrac {
				q.AddVertex("?x")
			} else {
				q.AddVertex(labels[rng.Intn(len(labels))])
			}
		}
		for t := 0; t < n; t++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b && !q.HasEdge(a, b) {
				q.MustAddEdge(a, b, "p")
			}
		}
		d[i] = q
	}
	u := make([]*ugraph.Graph, nu)
	for i := range u {
		u[i] = randomUncertain(rng, 2+rng.Intn(3), rng.Intn(3), 2)
	}
	return d, u
}

// TestIndexLabelScreenWildcardQueries covers the screen's wildcard terms:
// wildcard-heavy and all-wildcard queries must never be screened out when a
// match is possible, so the prescreened index feed agrees with the every-pair
// join through the same engine.
func TestIndexLabelScreenWildcardQueries(t *testing.T) {
	for _, wildFrac := range []float64{0.6, 1.0} {
		d, u := wildcardHeavyWorkload(61, 10, 8, wildFrac)
		idx := BuildIndex(d)
		for _, tau := range []int{0, 1, 2} {
			opts := Options{Tau: tau, Alpha: 0.5, Mode: ModeSimJ, Workers: 2}
			want, _, err := joinEveryPair(d, u, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := JoinWith(context.Background(), idx.Source(u), opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("wildFrac=%v tau=%d: indexed %d pairs, every-pair %d",
					wildFrac, tau, len(got), len(want))
			}
			for i := range got {
				if got[i].Q != want[i].Q || got[i].G != want[i].G {
					t.Fatalf("wildFrac=%v tau=%d: pair %d differs", wildFrac, tau, i)
				}
			}
			if st.Pairs != int64(len(d)*len(u)) {
				t.Errorf("accounting: %d pairs, want %d", st.Pairs, len(d)*len(u))
			}
		}
	}
}

// TestIndexLabelScreenAllWildcardQuery pins the degenerate case directly: a
// query of only variables overlaps any graph on every vertex, so no label
// term may reject it; only structure (size, edge labels, degrees) can.
func TestIndexLabelScreenAllWildcardQuery(t *testing.T) {
	q := graph.New(3)
	for i := 0; i < 3; i++ {
		q.AddVertex("?v")
	}
	q.MustAddEdge(0, 1, "p")
	q.MustAddEdge(1, 2, "p")
	idx := BuildIndex([]*graph.Graph{q})

	// Same shape and edge labels, fully disjoint concrete vertex labels: the
	// query's wildcards match every vertex, so ged = 0 and the prescreens
	// must admit the pair.
	g := ugraph.New(3)
	for i := 0; i < 3; i++ {
		g.AddVertex(ugraph.Label{Name: "Z", P: 1})
	}
	g.MustAddEdge(0, 1, "p")
	g.MustAddEdge(1, 2, "p")
	if c := sweepSorted(idx, g, 0); len(c) != 1 {
		t.Fatalf("all-wildcard query screened out at tau=0: %v", c)
	}

	// The mirror case: an all-wildcard uncertain graph absorbs any query.
	wild := ugraph.New(3)
	for i := 0; i < 3; i++ {
		wild.AddVertex(ugraph.Label{Name: "?w", P: 1})
	}
	wild.MustAddEdge(0, 1, "p")
	wild.MustAddEdge(1, 2, "p")
	concrete := graph.New(3)
	concrete.AddVertex("X")
	concrete.AddVertex("Y")
	concrete.AddVertex("Z")
	concrete.MustAddEdge(0, 1, "p")
	concrete.MustAddEdge(1, 2, "p")
	idx2 := BuildIndex([]*graph.Graph{concrete})
	if c := sweepSorted(idx2, wild, 0); len(c) != 1 {
		t.Fatalf("all-wildcard graph screened out at tau=0: %v", c)
	}
}

// TestIndexScreenGenerousTauAdmitsAll checks the admit-everything boundary:
// once tau reaches size(q) + size(g) for every query, no prescreen may drop a
// single query, whatever the label overlap.
func TestIndexScreenGenerousTauAdmitsAll(t *testing.T) {
	d, u := wildcardHeavyWorkload(67, 12, 6, 0.5)
	maxSize := 0
	for _, q := range d {
		if q.Size() > maxSize {
			maxSize = q.Size()
		}
	}
	idx := BuildIndex(d)
	for _, g := range u {
		// tau >= size(q) + size(g): the size window spans the whole index,
		// and the counted bound is at most C = |V(big)| + |E(big)| − λE +
		// ⌈dif/2⌉ ≤ size(big) + |E(small)| ≤ tau (dif ≤ 2|E(small)|), which
		// also covers the label-overlap bound's max(|V|) − overlap.
		tau := maxSize + g.Size()
		if c := sweepSorted(idx, g, tau); len(c) != idx.Len() {
			t.Fatalf("tau=%d admitted %d of %d queries", tau, len(c), idx.Len())
		}
	}
}

func TestIndexSizeScreen(t *testing.T) {
	// A 2-vertex query cannot be within tau=1 of an 8-vertex graph.
	small := graph.New(2)
	small.AddVertex("A")
	small.AddVertex("B")
	small.MustAddEdge(0, 1, "p")
	idx := BuildIndex([]*graph.Graph{small})

	big := ugraph.New(8)
	for i := 0; i < 8; i++ {
		big.AddVertex(ugraph.Label{Name: "A", P: 1})
	}
	if c := sweepSorted(idx, big, 1); len(c) != 0 {
		t.Fatalf("size screen failed: %v", c)
	}
	if c := sweepSorted(idx, big, 10); len(c) != 1 {
		t.Fatalf("generous tau should pass: %v", c)
	}
}

// TestSweepBuildsNoSignatureWithoutCandidates pins the sweep's lazy
// signature. Both queries of the index pass the size window and the
// label-overlap screen against g, so the sweep reaches the counted CSS test
// at every position; both die there (g's edge label matches neither), and
// the sweep returns no candidates, no GSig, and allocates nothing — it reads
// g's counts from its scratch. A graph with a survivor gets its signature,
// built on those counts.
func TestSweepBuildsNoSignatureWithoutCandidates(t *testing.T) {
	const tau = 0
	path := func(labels ...string) *graph.Graph {
		q := graph.New(len(labels))
		for _, l := range labels {
			q.AddVertex(l)
		}
		for v := 1; v < len(labels); v++ {
			q.MustAddEdge(v-1, v, "p")
		}
		return q
	}
	d := []*graph.Graph{path("A", "B"), path("B", "A")}
	g := ugraph.New(2) // the queries' shape, but its edge is labelled r, not p
	g.AddVertex(ugraph.Label{Name: "A", P: 1})
	g.AddVertex(ugraph.Label{Name: "B", P: 1})
	g.MustAddEdge(0, 1, "r")
	gs := filter.NewGSig(g)
	for qi, q := range d {
		qs := filter.NewQSig(q)
		if diff := q.Size() - g.Size(); diff > tau || -diff > tau {
			t.Fatalf("query %d: outside the size window", qi)
		}
		// The overlap screen keeps the pair when max(|V(q)|, |V(g)|) minus
		// the q-vertices whose label g carries is within τ (index.go).
		overlap := 0
		for _, id := range qs.VIDs {
			for v := 0; v < g.NumVertices(); v++ {
				if g.LabelIDs(v)[0] == id {
					overlap++
					break
				}
			}
		}
		if max(q.NumVertices(), g.NumVertices())-overlap > tau {
			t.Fatalf("query %d: ruled out by the label-overlap screen, never reaching the counted test", qi)
		}
		if lb := filter.CSSLowerBoundCounted(qs, &gs.GCounts); lb <= tau {
			t.Fatalf("query %d: counted CSS bound %d within tau %d", qi, lb, tau)
		}
	}
	src := BuildIndex(d).Source([]*ugraph.Graph{g})
	var sc indexScratch
	if cands, sig := src.sweep(0, tau, &sc); len(cands) != 0 || sig != nil {
		t.Fatalf("sweep returned %v and signature %v, want neither", cands, sig)
	}
	if a := testing.AllocsPerRun(50, func() { src.sweep(0, tau, &sc) }); a != 0 {
		t.Fatalf("a sweep without candidates allocated %v allocs/op, want 0", a)
	}

	g2 := ugraph.New(2) // a p edge: path("A", "B") itself
	g2.AddVertex(ugraph.Label{Name: "A", P: 1})
	g2.AddVertex(ugraph.Label{Name: "B", P: 1})
	g2.MustAddEdge(0, 1, "p")
	cands, sig := BuildIndex(d).Source([]*ugraph.Graph{g2}).sweep(0, tau, &sc)
	if len(cands) == 0 || sig == nil || sig.G != g2 {
		t.Fatalf("sweep of a matching graph returned %v and signature %v", cands, sig)
	}
	// The signature takes over the counts the sweep filled into its scratch,
	// and keeps them when the scratch fills another graph's.
	src.sweep(0, tau, &sc)
	var want filter.GCounts
	want.Fill(g2)
	if !reflect.DeepEqual(sig.GCounts, want) {
		t.Fatalf("sweep's signature counts %+v, want %+v", sig.GCounts, want)
	}
}
