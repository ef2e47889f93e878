package ugraph

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"simjoin/internal/graph"
)

// paperG2 builds the uncertain graph g2 of Fig. 4(b): ?x -type-> Politician,
// ?x -graduatedFrom-> v3 where v3 is {University:0.8, Company:0.2}.
func paperG2() *Graph {
	g := New(4)
	x := g.AddVertex(Label{Name: "?x", P: 1})
	pol := g.AddVertex(Label{Name: "Politician", P: 1})
	cit := g.AddVertex(Label{Name: "University", P: 0.8}, Label{Name: "Company", P: 0.2})
	g.MustAddEdge(x, pol, "type")
	g.MustAddEdge(x, cit, "graduatedFrom")
	return g
}

func TestValidateAndBasics(t *testing.T) {
	g := paperG2()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 || g.Size() != 5 {
		t.Fatalf("sizes wrong: |V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
	if n, ok := g.WorldCount(); !ok || n != 2 {
		t.Fatalf("WorldCount = %d,%v, want 2,true", n, ok)
	}
	if f := g.WorldCountFloat(); f != 2 {
		t.Fatalf("WorldCountFloat = %v, want 2", f)
	}
	if m := g.TotalMass(); math.Abs(m-1) > 1e-12 {
		t.Fatalf("TotalMass = %v, want 1", m)
	}
	uv := g.UncertainVertices()
	if len(uv) != 1 || uv[2-2] != 2 {
		t.Fatalf("UncertainVertices = %v, want [2]", uv)
	}
}

func TestLabelsSortedByProbability(t *testing.T) {
	g := New(1)
	g.AddVertex(Label{Name: "low", P: 0.1}, Label{Name: "high", P: 0.9})
	ls := g.Labels(0)
	if ls[0].Name != "high" || ls[1].Name != "low" {
		t.Fatalf("labels not sorted by probability: %v", ls)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []func() *Graph{
		func() *Graph { // no labels
			g := New(1)
			g.vertices = append(g.vertices, nil)
			g.out = append(g.out, nil)
			return g
		},
		func() *Graph { // probability out of range
			g := New(1)
			g.AddVertex(Label{Name: "A", P: 1.5})
			return g
		},
		func() *Graph { // zero probability
			g := New(1)
			g.AddVertex(Label{Name: "A", P: 0})
			return g
		},
		func() *Graph { // sum > 1
			g := New(1)
			g.AddVertex(Label{Name: "A", P: 0.7}, Label{Name: "B", P: 0.7})
			return g
		},
		func() *Graph { // duplicate label
			g := New(1)
			g.AddVertex(Label{Name: "A", P: 0.5}, Label{Name: "A", P: 0.5})
			return g
		},
	}
	for i, mk := range cases {
		if err := mk().Validate(); err == nil {
			t.Errorf("case %d: invalid graph accepted", i)
		}
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(2)
	a := g.AddVertex(Label{Name: "A", P: 1})
	b := g.AddVertex(Label{Name: "B", P: 1})
	if err := g.AddEdge(a, a, "x"); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(a, 7, "x"); err == nil {
		t.Error("range error accepted")
	}
	if err := g.AddEdge(a, b, "x"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a, b, "x"); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestWorldsEnumeration(t *testing.T) {
	g := paperG2()
	type world struct {
		label string
		p     float64
	}
	var got []world
	g.Worlds(func(w *graph.Graph, p float64) bool {
		if err := w.Validate(); err != nil {
			t.Fatalf("world invalid: %v", err)
		}
		got = append(got, world{w.VertexLabel(2), p})
		return true
	})
	if len(got) != 2 {
		t.Fatalf("got %d worlds, want 2", len(got))
	}
	// Highest-probability label first at each vertex.
	if got[0].label != "University" || math.Abs(got[0].p-0.8) > 1e-12 {
		t.Errorf("world 0 = %v, want University/0.8", got[0])
	}
	if got[1].label != "Company" || math.Abs(got[1].p-0.2) > 1e-12 {
		t.Errorf("world 1 = %v, want Company/0.2", got[1])
	}
}

func TestWorldsEarlyStop(t *testing.T) {
	g := paperG2()
	n := 0
	g.Worlds(func(*graph.Graph, float64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d worlds, want 1", n)
	}
}

func TestWorldProbabilitiesSumToMass(t *testing.T) {
	f := func(seed int64) bool {
		g := randomUncertain(rand.New(rand.NewSource(seed)), 4, 3, 3)
		sum := 0.0
		g.Worlds(func(_ *graph.Graph, p float64) bool { sum += p; return true })
		return math.Abs(sum-g.TotalMass()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMostLikelyWorld(t *testing.T) {
	g := paperG2()
	w, p := g.MostLikelyWorld()
	if w.VertexLabel(2) != "University" || math.Abs(p-0.8) > 1e-12 {
		t.Fatalf("MostLikelyWorld = %s p=%v", w.VertexLabel(2), p)
	}
	if w.NumEdges() != 2 {
		t.Fatal("edges not carried into world")
	}
}

func TestFromCertainRoundTrip(t *testing.T) {
	c := graph.New(2)
	c.AddVertex("A")
	c.AddVertex("?x")
	c.MustAddEdge(0, 1, "p")
	u := FromCertain(c)
	if n, _ := u.WorldCount(); n != 1 {
		t.Fatalf("certain lift has %d worlds", n)
	}
	w, p := u.MostLikelyWorld()
	if p != 1 || !w.Equal(c) {
		t.Fatal("FromCertain world differs from source")
	}
}

func TestConditionMass(t *testing.T) {
	g := paperG2()
	c, mass := g.Condition(2, []int{0}) // keep University only
	if math.Abs(mass-0.8) > 1e-12 {
		t.Fatalf("mass = %v, want 0.8", mass)
	}
	if len(c.Labels(2)) != 1 || c.Labels(2)[0].Name != "University" {
		t.Fatalf("conditioned labels = %v", c.Labels(2))
	}
	if math.Abs(c.TotalMass()-0.8) > 1e-12 {
		t.Fatalf("conditioned TotalMass = %v, want 0.8", c.TotalMass())
	}
	// Original untouched.
	if len(g.Labels(2)) != 2 {
		t.Fatal("Condition mutated the original")
	}
}

func TestGroupsCoverAllWorlds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomUncertain(rng, 5, 4, 3)
		k := 1 + rng.Intn(6)
		groups := g.PartitionWorlds(k)
		if len(groups) > k {
			return false
		}
		total := 0.0
		worlds := 0.0
		for _, gr := range groups {
			total += gr.Mass
			worlds += gr.G.WorldCountFloat()
			// Mass consistency within each group.
			if math.Abs(gr.Mass-gr.G.TotalMass()) > 1e-9 {
				return false
			}
		}
		return math.Abs(total-g.TotalMass()) < 1e-9 && worlds == g.WorldCountFloat()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitUnsplittable(t *testing.T) {
	c := graph.New(1)
	c.AddVertex("A")
	g := FromCertain(c)
	if v := g.SplitVertex(); v != -1 {
		t.Fatalf("SplitVertex on certain graph = %d, want -1", v)
	}
	_, _, ok := g.AsGroup().Split()
	if ok {
		t.Fatal("certain graph split succeeded")
	}
	groups := g.PartitionWorlds(5)
	if len(groups) != 1 {
		t.Fatalf("PartitionWorlds on certain graph produced %d groups", len(groups))
	}
}

func TestSplitVertexPrefersHighMassThenMoreLabels(t *testing.T) {
	g := New(3)
	g.AddVertex(Label{Name: "A", P: 0.5}, Label{Name: "B", P: 0.2})                           // mass 0.7
	g.AddVertex(Label{Name: "C", P: 0.5}, Label{Name: "D", P: 0.3}, Label{Name: "E", P: 0.2}) // mass 1.0
	g.AddVertex(Label{Name: "F", P: 1})
	if v := g.SplitVertex(); v != 1 {
		t.Fatalf("SplitVertex = %d, want 1 (highest mass)", v)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := paperG2()
	c := g.Clone()
	c.vertices[0] = []Label{{Name: "Z", P: 1}}
	c.ids[0] = []graph.LabelID{graph.InternLabel("Z")}
	if g.Labels(0)[0].Name != "?x" {
		t.Fatal("clone shares vertex storage")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
}

func TestString(t *testing.T) {
	s := paperG2().String()
	for _, sub := range []string{"|V|=3", "University:0.80", "0-type->1"} {
		if !strings.Contains(s, sub) {
			t.Errorf("String() missing %q in %q", sub, s)
		}
	}
}

// randomUncertain builds a random uncertain graph with n vertices, ~e edges,
// and up to maxLabels labels per vertex.
func randomUncertain(rng *rand.Rand, n, e, maxLabels int) *Graph {
	names := []string{"A", "B", "C", "D", "E"}
	g := New(n)
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(maxLabels)
		if k > len(names) {
			k = len(names)
		}
		perm := rng.Perm(len(names))[:k]
		rest := 1.0
		var ls []Label
		for j, pi := range perm {
			p := rest
			if j < k-1 {
				p = rest * (0.3 + 0.5*rng.Float64())
			}
			if p <= 0 {
				p = 1e-6
			}
			ls = append(ls, Label{Name: names[pi], P: p})
			rest -= p
		}
		g.AddVertex(ls...)
	}
	for tries := 0; tries < e*3 && g.NumEdges() < e; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := g.AddEdge(u, v, "p"); err != nil {
			continue
		}
	}
	return g
}
