package ged

import (
	"fmt"
	"math/rand"
	"testing"

	"simjoin/internal/graph"
)

// chain builds a path graph A -p-> B -p-> C ... with the given vertex labels.
func chain(labels ...string) *graph.Graph {
	g := graph.New(len(labels))
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 0; i+1 < len(labels); i++ {
		g.MustAddEdge(i, i+1, "p")
	}
	return g
}

func TestDistanceIdentical(t *testing.T) {
	g := chain("A", "B", "C")
	if d := Distance(g, g.Clone()); d != 0 {
		t.Fatalf("ged(g,g) = %d, want 0", d)
	}
}

func TestDistanceEmptyGraphs(t *testing.T) {
	e := graph.New(0)
	if d := Distance(e, e); d != 0 {
		t.Fatalf("ged(empty,empty) = %d, want 0", d)
	}
	g := chain("A", "B")
	// Transform empty -> g: insert 2 vertices + 1 edge.
	if d := Distance(e, g); d != 3 {
		t.Fatalf("ged(empty,AB) = %d, want 3", d)
	}
	if d := Distance(g, e); d != 3 {
		t.Fatalf("ged(AB,empty) = %d, want 3", d)
	}
}

func TestDistanceLabelSubstitution(t *testing.T) {
	g1 := chain("A", "B", "C")
	g2 := chain("A", "B", "D")
	if d := Distance(g1, g2); d != 1 {
		t.Fatalf("single label substitution = %d, want 1", d)
	}
}

func TestDistanceEdgeLabelSubstitution(t *testing.T) {
	g1 := chain("A", "B")
	g2 := graph.New(2)
	g2.AddVertex("A")
	g2.AddVertex("B")
	g2.MustAddEdge(0, 1, "q")
	if d := Distance(g1, g2); d != 1 {
		t.Fatalf("edge label substitution = %d, want 1", d)
	}
}

func TestDistanceEdgeDirection(t *testing.T) {
	g1 := graph.New(2)
	g1.AddVertex("A")
	g1.AddVertex("B")
	g1.MustAddEdge(0, 1, "p")
	g2 := graph.New(2)
	g2.AddVertex("A")
	g2.AddVertex("B")
	g2.MustAddEdge(1, 0, "p")
	// Reversing a directed edge = delete + insert = 2, OR substitute both
	// vertex labels = 2. Either way the distance is 2.
	if d := Distance(g1, g2); d != 2 {
		t.Fatalf("reversed edge distance = %d, want 2", d)
	}
}

func TestDistanceVertexInsert(t *testing.T) {
	g1 := chain("A", "B")
	g2 := chain("A", "B", "C")
	// Insert vertex C and edge B->C.
	if d := Distance(g1, g2); d != 2 {
		t.Fatalf("insert vertex+edge = %d, want 2", d)
	}
}

func TestDistanceWildcard(t *testing.T) {
	g1 := chain("?x", "B")
	g2 := chain("Anything", "B")
	if d := Distance(g1, g2); d != 0 {
		t.Fatalf("wildcard should match free: got %d", d)
	}
	g3 := chain("?x", "?y", "?z")
	g4 := chain("P", "Q", "R")
	if d := Distance(g3, g4); d != 0 {
		t.Fatalf("all-wildcard chain distance = %d, want 0", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		a := randomGraph(rng, 4, 3)
		b := randomGraph(rng, 5, 3)
		if d1, d2 := Distance(a, b), Distance(b, a); d1 != d2 {
			t.Fatalf("asymmetric: ged(a,b)=%d ged(b,a)=%d\na=%v\nb=%v", d1, d2, a, b)
		}
	}
}

func TestWithinThreshold(t *testing.T) {
	g1 := chain("A", "B", "C")
	g2 := chain("A", "X", "Y")
	d := Distance(g1, g2)
	if d != 2 {
		t.Fatalf("setup: distance = %d, want 2", d)
	}
	if got, ok := WithinThreshold(g1, g2, 2); !ok || got != 2 {
		t.Errorf("WithinThreshold(τ=2) = %d,%v, want 2,true", got, ok)
	}
	if _, ok := WithinThreshold(g1, g2, 1); ok {
		t.Error("WithinThreshold(τ=1) should fail")
	}
	if got, ok := WithinThreshold(g1, g2, 10); !ok || got != 2 {
		t.Errorf("WithinThreshold(τ=10) = %d,%v, want 2,true", got, ok)
	}
	if _, ok := WithinThreshold(g1, g2, -1); ok {
		t.Error("negative threshold should fail")
	}
}

func TestMappingIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		a := randomGraph(rng, 4, 4)
		b := randomGraph(rng, 4, 4)
		d, m := DistanceMapping(a, b)
		c, err := MappingCost(a, b, m)
		if err != nil {
			t.Fatalf("MappingCost: %v (mapping %v)", err, m)
		}
		if c != d {
			t.Fatalf("mapping cost %d != distance %d\na=%v\nb=%v m=%v", c, d, a, b, m)
		}
	}
}

func TestMappingCostErrors(t *testing.T) {
	a := chain("A", "B")
	b := chain("A", "B")
	if _, err := MappingCost(a, b, Mapping{0}); err == nil {
		t.Error("short mapping accepted")
	}
	if _, err := MappingCost(a, b, Mapping{0, 9}); err == nil {
		t.Error("out-of-range image accepted")
	}
	if _, err := MappingCost(a, b, Mapping{0, 0}); err == nil {
		t.Error("non-injective mapping accepted")
	}
	if c, err := MappingCost(a, b, Mapping{Deleted, Deleted}); err != nil || c != 6 {
		t.Errorf("all-deleted mapping cost = %d,%v; want 6,nil", c, err)
	}
}

func TestBudget(t *testing.T) {
	a := randomGraph(rand.New(rand.NewSource(5)), 8, 10)
	b := randomGraph(rand.New(rand.NewSource(6)), 8, 10)
	_, err := Compute(a, b, Options{Threshold: NoThreshold, MaxStates: 1})
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestOversizeGraphs(t *testing.T) {
	big := graph.New(65)
	for i := 0; i < 65; i++ {
		big.AddVertex("A")
	}
	if _, err := Compute(big, big, Options{Threshold: NoThreshold}); err == nil {
		t.Fatal("oversize graph accepted")
	}
}

// randomGraph makes a random directed graph with n vertices, ~e edges and a
// small label alphabet, including occasional wildcards.
func randomGraph(rng *rand.Rand, n, e int) *graph.Graph {
	labels := []string{"A", "B", "C", "?x"}
	elabels := []string{"p", "q"}
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

// bruteGED enumerates every injective partial mapping and minimises
// MappingCost — an oracle for tiny graphs.
func bruteGED(t *testing.T, a, b *graph.Graph) int {
	t.Helper()
	n, m := a.NumVertices(), b.NumVertices()
	best := 1 << 30
	mapping := make(Mapping, n)
	usedB := make([]bool, m)
	var rec func(u int)
	rec = func(u int) {
		if u == n {
			c, err := MappingCost(a, b, mapping)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if c < best {
				best = c
			}
			return
		}
		mapping[u] = Deleted
		rec(u + 1)
		for v := 0; v < m; v++ {
			if !usedB[v] {
				usedB[v] = true
				mapping[u] = v
				rec(u + 1)
				usedB[v] = false
			}
		}
		mapping[u] = Deleted
	}
	rec(0)
	return best
}

func TestDistanceAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		a := randomGraph(rng, 1+rng.Intn(4), rng.Intn(4))
		b := randomGraph(rng, 1+rng.Intn(4), rng.Intn(4))
		want := bruteGED(t, a, b)
		if got := Distance(a, b); got != want {
			t.Fatalf("iter %d: A* = %d, brute = %d\na=%v\nb=%v", i, got, want, a, b)
		}
	}
}

func TestTriangleInequalitySpot(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		a := randomGraph(rng, 3, 2)
		b := randomGraph(rng, 3, 2)
		c := randomGraph(rng, 3, 2)
		dab, dbc, dac := Distance(a, b), Distance(b, c), Distance(a, c)
		if dac > dab+dbc {
			t.Fatalf("triangle inequality violated: d(a,c)=%d > d(a,b)+d(b,c)=%d+%d", dac, dab, dbc)
		}
	}
}

// bruteMappings enumerates every injective partial mapping from a to b and
// returns the cost of each whose MappingCost is at most tau, keyed by its
// printed form.
func bruteMappings(t *testing.T, a, b *graph.Graph, tau int) map[string]int {
	t.Helper()
	out := make(map[string]int)
	n, m := a.NumVertices(), b.NumVertices()
	mapping := make(Mapping, n)
	usedB := make([]bool, m)
	var rec func(u int)
	rec = func(u int) {
		if u == n {
			c, err := MappingCost(a, b, mapping)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if c <= tau {
				out[fmt.Sprint(mapping)] = c
			}
			return
		}
		mapping[u] = Deleted
		rec(u + 1)
		for v := 0; v < m; v++ {
			if !usedB[v] {
				usedB[v] = true
				mapping[u] = v
				rec(u + 1)
				usedB[v] = false
			}
		}
	}
	rec(0)
	return out
}

// TestComputeAllMatchesBruteForce pins the all-solutions mode: on random
// small pairs in both argument orders, ComputeAll reports exactly the
// mappings a brute force finds within τ, each once, with its MappingCost, in
// non-decreasing cost order, the first at Compute's distance.
func TestComputeAllMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 80; i++ {
		a := randomGraph(rng, 1+rng.Intn(5), rng.Intn(6))
		b := randomGraph(rng, 1+rng.Intn(5), rng.Intn(6))
		tau := rng.Intn(5)
		for _, pair := range [2][2]*graph.Graph{{a, b}, {b, a}} {
			x, y := pair[0], pair[1]
			want := bruteMappings(t, x, y, tau)
			got := make(map[string]int)
			last := -1
			_, err := ComputeAll(x, y, Options{Threshold: tau}, func(m Mapping, cost int) {
				key := fmt.Sprint(m)
				if _, dup := got[key]; dup {
					t.Fatalf("iter %d: mapping %s reported twice", i, key)
				}
				if cost < last {
					t.Fatalf("iter %d: cost %d after %d", i, cost, last)
				}
				if c, err := MappingCost(x, y, m); err != nil || c != cost {
					t.Fatalf("iter %d: mapping %s reported at %d, MappingCost %d (%v)", i, key, cost, c, err)
				}
				got[key], last = cost, cost
			})
			if err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
			if len(got) != len(want) {
				t.Fatalf("iter %d tau %d: %d mappings, brute force %d\nx=%v\ny=%v", i, tau, len(got), len(want), x, y)
			}
			for k, c := range want {
				if got[k] != c {
					t.Fatalf("iter %d: mapping %s missing or at the wrong cost", i, k)
				}
			}
			r, _ := Compute(x, y, Options{Threshold: tau})
			if r.Exceeded != (len(want) == 0) {
				t.Fatalf("iter %d: Compute exceeded=%v with %d mappings within tau", i, r.Exceeded, len(want))
			}
		}
	}
}

// TestComputeAllCaps pins ComputeAll's failures: more than MaxMappings
// mappings within τ fail with ErrTooManyMappings after MaxMappings reports,
// and MaxStates fails with ErrBudget.
func TestComputeAllCaps(t *testing.T) {
	// Eight isolated wildcard vertices against eight isolated vertices:
	// every bijection costs 0, far more than MaxMappings.
	a, b := graph.New(8), graph.New(8)
	for i := 0; i < 8; i++ {
		a.AddVertex("?")
		b.AddVertex("A")
	}
	calls := 0
	if _, err := ComputeAll(a, b, Options{Threshold: 0}, func(Mapping, int) { calls++ }); err != ErrTooManyMappings || calls != MaxMappings {
		t.Fatalf("cap: err %v after %d calls, want ErrTooManyMappings after %d", err, calls, MaxMappings)
	}
	if _, err := ComputeAll(a, b, Options{Threshold: 0, MaxStates: 1}, func(Mapping, int) {}); err != ErrBudget {
		t.Fatalf("budget: err %v, want ErrBudget", err)
	}
}
