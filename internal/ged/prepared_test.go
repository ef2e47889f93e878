package ged

import (
	"fmt"
	"math/rand"
	"testing"

	"simjoin/internal/graph"
)

// TestComputeAllPreparedMatchesComputeAll requires the all-solutions search
// between prepared graphs to report exactly ComputeAll's mappings, costs and
// states, in both argument orders, with one preparation per graph reused
// across every threshold.
func TestComputeAllPreparedMatchesComputeAll(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	collect := func(run func(fn func(Mapping, int)) (int, error)) string {
		out := ""
		states, err := run(func(m Mapping, cost int) { out += fmt.Sprintf("%v:%d ", m, cost) })
		return fmt.Sprintf("%s| states=%d err=%v", out, states, err)
	}
	for i := 0; i < 150; i++ {
		a := randomGraph(rng, 1+rng.Intn(7), rng.Intn(10))
		b := randomGraph(rng, 1+rng.Intn(7), rng.Intn(10))
		pa, pb := Prepare(a), Prepare(b)
		for _, tau := range []int{0, 1, 2, 3} {
			opts := Options{Threshold: tau}
			for rev, pair := range [2][2]*graph.Graph{{a, b}, {b, a}} {
				sides := [2]*Prepared{pa, pb}
				want := collect(func(fn func(Mapping, int)) (int, error) { return ComputeAll(pair[0], pair[1], opts, fn) })
				got := collect(func(fn func(Mapping, int)) (int, error) {
					return ComputeAllPrepared(sides[rev], sides[1-rev], opts, fn)
				})
				if got != want {
					t.Fatalf("case %d tau %d rev %d:\nprepared %s\ncompute  %s", i, tau, rev, got, want)
				}
			}
		}
	}
}

// TestComputePreparedAllocs pins the prepared search's allocations: a
// threshold search between two prepared graphs allocates nothing, with or
// without a goal within τ, when the caller's mapping buffer is long enough;
// and re-preparing a buffer for a graph of the same size allocates nothing.
func TestComputePreparedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop searchers at random")
	}
	q := graph.New(4)
	for _, l := range []string{"A", "B", "C", "?x"} {
		q.AddVertex(l)
	}
	q.MustAddEdge(0, 1, "p")
	q.MustAddEdge(1, 2, "q")
	q.MustAddEdge(2, 3, "p")
	w := graph.New(5)
	for _, l := range []string{"A", "B", "D", "C", "E"} {
		w.AddVertex(l)
	}
	w.MustAddEdge(0, 1, "p")
	w.MustAddEdge(1, 3, "q")
	w.MustAddEdge(3, 4, "p")
	w.MustAddEdge(4, 2, "r")
	pq, pw := Prepare(q), Prepare(w)
	buf := make(Mapping, q.NumVertices())

	for _, c := range []struct {
		tau      int
		exceeded bool
	}{
		{1, true},  // ged(q, w) = 4: no goal within τ
		{5, false}, // a goal, written into buf
	} {
		opts := Options{Threshold: c.tau}
		r, err := ComputePrepared(pq, pw, opts, buf)
		if err != nil || r.Exceeded != c.exceeded {
			t.Fatalf("tau %d: result %+v, err %v; want exceeded=%v", c.tau, r, err, c.exceeded)
		}
		if !c.exceeded && &r.Mapping[0] != &buf[0] {
			t.Fatalf("tau %d: the goal's mapping is not the caller's buffer", c.tau)
		}
		if got := testing.AllocsPerRun(100, func() { ComputePrepared(pq, pw, opts, buf) }); got != 0 {
			t.Fatalf("tau %d: ComputePrepared allocated %v allocs/op, want 0", c.tau, got)
		}
	}
	w2 := w.Clone()
	w2.SetVertexLabel(2, "F")
	if got := testing.AllocsPerRun(100, func() { pw.Reset(w2) }); got != 0 {
		t.Fatalf("Prepared.Reset allocated %v allocs/op on a same-size graph, want 0", got)
	}
}

// TestComputeWildcardOnlyGraphs runs a fresh searcher on graphs whose every label
// is a wildcard, so no label reaches the local id array.
func TestComputeWildcardOnlyGraphs(t *testing.T) {
	a := graph.New(2)
	a.AddVertex("?x")
	a.AddVertex("?y")
	a.MustAddEdge(0, 1, "?p")
	s := new(searcher)
	if r, err := s.compute(Prepare(a), Prepare(a), Options{Threshold: 0}, nil); err != nil || r.Exceeded || r.Distance != 0 {
		t.Fatalf("wildcard graph against itself: %+v, %v", r, err)
	}
}
