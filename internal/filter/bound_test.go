package filter

import (
	"math/rand"
	"reflect"
	"testing"

	"simjoin/internal/ged"
	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// allBoundNames is the full bound table; registry tests pin it so a rename or
// a dropped entry fails loudly.
var allBoundNames = []string{
	"count", "css", "cstar", "group", "lm",
	"pars", "path-gram", "prob", "prob-tight", "segos",
}

func TestBoundRegistryComplete(t *testing.T) {
	got := BoundNames()
	want := append([]string(nil), allBoundNames...)
	// BoundNames is sorted; keep the expectation sorted too.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BoundNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		b, ok := BoundByName(name)
		if !ok {
			t.Fatalf("BoundByName(%q) missing", name)
		}
		if b.Name() != name {
			t.Errorf("bound registered as %q reports Name() = %q", name, b.Name())
		}
	}
	if _, ok := BoundByName("nope"); ok {
		t.Error("BoundByName accepted an unknown name")
	}
}

func TestParseChain(t *testing.T) {
	chain, err := ParseChain(" count, css ,prob ")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, b := range chain {
		names = append(names, b.Name())
	}
	if !reflect.DeepEqual(names, []string{"count", "css", "prob"}) {
		t.Fatalf("ParseChain order = %v", names)
	}
	if _, err := ParseChain("css,bogus"); err == nil {
		t.Error("unknown bound accepted")
	}
	if _, err := ParseChain(" , ,"); err == nil {
		t.Error("empty chain accepted")
	}
}

// TestStructuralBoundsSound checks the core soundness contract on random
// uncertain pairs: whenever a structural bound prunes at τ, no possible world
// of g may be within edit distance τ of q (SimPτ must be exactly 0).
func TestStructuralBoundsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var structural []Bound
	for _, name := range BoundNames() {
		b, _ := BoundByName(name)
		if b.Kind() == Structural {
			structural = append(structural, b)
		}
	}
	if len(structural) < 7 {
		t.Fatalf("expected at least 7 structural bounds, have %d", len(structural))
	}
	pruned := make(map[string]int)
	for trial := 0; trial < 120; trial++ {
		q := randomCertain(rng, 2+rng.Intn(4), rng.Intn(5))
		g := randomUncertain(rng, 2+rng.Intn(3), rng.Intn(4), 2)
		qs, gs := NewQSig(q), NewGSig(g)
		for _, tau := range []int{0, 1, 2} {
			var sc Scratch
			pc := PairContext{QS: qs, GS: gs, Tau: tau, Alpha: 0.5, GroupCount: 4, Scratch: &sc}
			for _, b := range structural {
				if !b.Apply(&pc).Pruned {
					continue
				}
				pruned[b.Name()]++
				g.Worlds(func(w *graph.Graph, p float64) bool {
					if d, ok := ged.WithinThreshold(q, w, tau); ok {
						t.Fatalf("bound %s pruned at tau=%d but world at distance %d exists (trial %d)",
							b.Name(), tau, d, trial)
					}
					return true
				})
			}
		}
	}
	// The workhorse bounds must actually fire on this workload, or the test
	// proves nothing.
	for _, name := range []string{"css", "count", "lm"} {
		if pruned[name] == 0 {
			t.Errorf("bound %s never pruned across all trials", name)
		}
	}
}

// TestProbabilisticBoundsSound checks that a probabilistic prune at α implies
// the exact similarity probability is below α.
func TestProbabilisticBoundsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	probs := []Bound{MustBound("prob"), MustBound("prob-tight"), MustBound("group")}
	fired := make(map[string]int)
	for trial := 0; trial < 80; trial++ {
		q := randomCertain(rng, 2+rng.Intn(4), rng.Intn(5))
		g := randomUncertain(rng, 2+rng.Intn(3), rng.Intn(4), 2)
		qs, gs := NewQSig(q), NewGSig(g)
		for _, tau := range []int{0, 1} {
			for _, alpha := range []float64{0.4, 0.8} {
				for _, b := range probs {
					var sc Scratch
					pc := PairContext{QS: qs, GS: gs, Tau: tau, Alpha: alpha, GroupCount: 4, Scratch: &sc}
					if !b.Apply(&pc).Pruned {
						continue
					}
					fired[b.Name()]++
					if simP := exactSimP(q, g, tau); simP >= alpha {
						t.Fatalf("bound %s pruned at tau=%d alpha=%v but SimP=%v (trial %d)",
							b.Name(), tau, alpha, simP, trial)
					}
				}
			}
		}
	}
	for _, b := range probs {
		if fired[b.Name()] == 0 {
			t.Errorf("bound %s never pruned across all trials", b.Name())
		}
	}
}

// TestGSigRelaxed pins the relaxation: unambiguous vertices keep their label,
// multi-candidate and wildcard vertices degrade to "?", edges carry over, and
// the result is memoised.
func TestGSigRelaxed(t *testing.T) {
	g := ugraph.New(4)
	g.AddVertex(ugraph.Label{Name: "A", P: 1})
	g.AddVertex(ugraph.Label{Name: "B", P: 0.6}, ugraph.Label{Name: "C", P: 0.4})
	g.AddVertex(ugraph.Label{Name: "?x", P: 1})
	g.AddVertex(ugraph.Label{Name: "D", P: 1})
	g.MustAddEdge(0, 1, "p")
	g.MustAddEdge(2, 3, "q")

	gs := NewGSig(g)
	r := gs.Relaxed()
	wantLabels := []string{"A", "?", "?", "D"}
	for v, want := range wantLabels {
		if got := r.VertexLabel(v); got != want {
			t.Errorf("relaxed label(%d) = %q, want %q", v, got, want)
		}
	}
	if r.NumVertices() != 4 || r.NumEdges() != 2 {
		t.Errorf("relaxed shape = %d vertices / %d edges, want 4/2", r.NumVertices(), r.NumEdges())
	}
	if !r.HasEdge(0, 1) || !r.HasEdge(2, 3) {
		t.Error("relaxed graph lost an edge")
	}
	if gs.Relaxed() != r {
		t.Error("Relaxed() not memoised")
	}
}

// TestRelaxedLowerBoundsWorlds is the relaxation argument itself: for every
// possible world w, each baseline bound on (q, relaxed(g)) must not exceed its
// value on (q, w) — wildcards only ever add matches.
func TestRelaxedLowerBoundsWorlds(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	type lbFunc struct {
		name string
		lb   func(q, g *graph.Graph, tau int) int
	}
	lbs := []lbFunc{
		{"lm", func(q, g *graph.Graph, _ int) int { return LMLowerBound(q, g) }},
		{"count", func(q, g *graph.Graph, _ int) int { return CountLowerBound(q, g) }},
		{"cstar", func(q, g *graph.Graph, _ int) int { return CStarLowerBound(q, g) }},
		{"path-gram", func(q, g *graph.Graph, _ int) int { return PathGramLowerBound(q, g) }},
		{"pars", func(q, g *graph.Graph, _ int) int { return ParsLowerBound(q, g) }},
		{"segos", SegosLowerBound},
	}
	for trial := 0; trial < 40; trial++ {
		q := randomCertain(rng, 2+rng.Intn(3), rng.Intn(4))
		g := randomUncertain(rng, 2+rng.Intn(3), rng.Intn(3), 2)
		r := NewGSig(g).Relaxed()
		tau := rng.Intn(3)
		for _, f := range lbs {
			relaxed := f.lb(q, r, tau)
			g.Worlds(func(w *graph.Graph, p float64) bool {
				if d, ok := ged.WithinThreshold(q, w, relaxed+2); ok && d < relaxed {
					t.Fatalf("%s: relaxed bound %d exceeds ged(q,w)=%d (trial %d)",
						f.name, relaxed, d, trial)
				}
				return true
			})
		}
	}
}
