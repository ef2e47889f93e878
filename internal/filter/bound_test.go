package filter

import (
	"math/rand"
	"testing"

	"simjoin/internal/ged"
	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// baselines are the certain-graph baseline lower bounds of baselines.go. On
// an uncertain graph each is evaluated against its certain relaxation
// (GSig.Relaxed).
var baselines = []struct {
	name string
	lb   func(q, g *graph.Graph, tau int) int
}{
	{"lm", func(q, g *graph.Graph, _ int) int { return LMLowerBound(q, g) }},
	{"count", func(q, g *graph.Graph, _ int) int { return CountLowerBound(q, g) }},
	{"cstar", func(q, g *graph.Graph, _ int) int { return CStarLowerBound(q, g) }},
	{"path-gram", func(q, g *graph.Graph, _ int) int { return PathGramLowerBound(q, g) }},
	{"pars", func(q, g *graph.Graph, _ int) int { return ParsLowerBound(q, g) }},
	{"segos", SegosLowerBound},
}

// TestStructuralBoundsSound checks the core soundness contract on random
// uncertain pairs: whenever the CSS stage, or a baseline bound on the
// relaxation, prunes at τ, no possible world of g may be within edit
// distance τ of q (SimPτ must be exactly 0).
func TestStructuralBoundsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pruned := make(map[string]int)
	for trial := 0; trial < 120; trial++ {
		q := randomCertain(rng, 2+rng.Intn(4), rng.Intn(5))
		g := randomUncertain(rng, 2+rng.Intn(3), rng.Intn(4), 2)
		qs, gs := NewQSig(q), NewGSig(g)
		for _, tau := range []int{0, 1, 2} {
			var sc Scratch
			prunes := map[string]bool{"css": CSSLowerBoundUncertainSigScratch(&sc.BP, qs, gs) > tau}
			for _, b := range baselines {
				prunes[b.name] = b.lb(q, gs.Relaxed(), tau) > tau
			}
			for name, hit := range prunes {
				if !hit {
					continue
				}
				pruned[name]++
				g.Worlds(func(w *graph.Graph, p float64) bool {
					if d, ok := ged.WithinThreshold(q, w, tau); ok {
						t.Fatalf("bound %s pruned at tau=%d but world at distance %d exists (trial %d)",
							name, tau, d, trial)
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
// the exact similarity probability is below α: for Theorem 4's bound and the
// grouped bound as the join's second stage runs them, and for the tight
// bound evaluated as the ablation A6 would, each with a worker's scratch and
// the pair's CSS bound.
func TestProbabilisticBoundsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	type pair struct {
		qs    *QSig
		gs    *GSig
		sc    *Scratch
		lb    int
		tau   int
		alpha float64
	}
	probs := map[string]func(p pair) bool{
		"prob": func(p pair) bool { return SimilarityUpperBoundSig(p.qs, p.gs, p.tau) < p.alpha-MassSlack },
		"group": func(p pair) bool {
			pruned, _, _, _ := GroupBound(p.sc, p.qs, p.gs, p.lb, p.tau, p.alpha, 4)
			return pruned
		},
		"tight": func(p pair) bool {
			return TotalProbabilityUpperBoundSigScratch(&p.sc.BP, p.qs, p.gs, p.tau, p.lb) < p.alpha-MassSlack
		},
	}
	fired := make(map[string]int)
	for trial := 0; trial < 80; trial++ {
		q := randomCertain(rng, 2+rng.Intn(4), rng.Intn(5))
		g := randomUncertain(rng, 2+rng.Intn(3), rng.Intn(4), 2)
		qs, gs := NewQSig(q), NewGSig(g)
		for _, tau := range []int{0, 1} {
			for _, alpha := range []float64{0.4, 0.8} {
				for name, prunes := range probs {
					sc := new(Scratch)
					lb := CSSLowerBoundUncertainSigScratch(&sc.BP, qs, gs)
					if !prunes(pair{qs, gs, sc, lb, tau, alpha}) {
						continue
					}
					fired[name]++
					if simP := exactSimP(q, g, tau); simP >= alpha {
						t.Fatalf("bound %s pruned at tau=%d alpha=%v but SimP=%v (trial %d)",
							name, tau, alpha, simP, trial)
					}
				}
			}
		}
	}
	for name := range probs {
		if fired[name] == 0 {
			t.Errorf("bound %s never pruned across all trials", name)
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
	for trial := 0; trial < 40; trial++ {
		q := randomCertain(rng, 2+rng.Intn(3), rng.Intn(4))
		g := randomUncertain(rng, 2+rng.Intn(3), rng.Intn(3), 2)
		r := NewGSig(g).Relaxed()
		tau := rng.Intn(3)
		for _, f := range baselines {
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
