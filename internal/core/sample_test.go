package core

import (
	"math"
	"testing"

	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// hugeUncertain builds an uncertain graph with 3^12 possible worlds whose
// exact SimP against q is computable analytically.
func hugeUncertain(matchMass float64) (*graph.Graph, *ugraph.Graph) {
	// q: star of 13 vertices all labeled M.
	q := graph.New(13)
	c := q.AddVertex("M")
	for i := 0; i < 12; i++ {
		v := q.AddVertex("M")
		q.MustAddEdge(c, v, "e")
	}
	// g: same structure; centre certain M, every leaf M with probability p
	// and two decoys. A world is within tau=1 iff at most one leaf deviates.
	p := matchMass
	g := ugraph.New(13)
	gc := g.AddVertex(ugraph.Label{Name: "M", P: 1})
	for i := 0; i < 12; i++ {
		v := g.AddVertex(
			ugraph.Label{Name: "M", P: p},
			ugraph.Label{Name: "X", P: (1 - p) / 2},
			ugraph.Label{Name: "Y", P: (1 - p) / 2},
		)
		g.MustAddEdge(gc, v, "e")
	}
	return q, g
}

// exactStarSimP computes SimP analytically: P(at most one of 12 leaves
// deviates) = p^12 + 12·p^11·(1−p).
func exactStarSimP(p float64) float64 {
	return math.Pow(p, 12) + 12*math.Pow(p, 11)*(1-p)
}

// undecidableStarAlpha sits just above the SimP of hugeUncertain(0.945)
// (≈ 0.86): the pair misses Def. 7 by more than filter.MassSlack, yet by far
// less than a small sample's Hoeffding margin or the mass the approximate
// rung leaves unknown, so undecided is the only sound outcome.
func undecidableStarAlpha() float64 { return exactStarSimP(0.945) + 1e-9 }

func TestSampleVerifyDecisions(t *testing.T) {
	cases := []struct {
		p      float64
		alpha  float64
		accept bool
	}{
		{0.98, 0.5, true},  // exact SimP ≈ 0.98 >> 0.5
		{0.55, 0.9, false}, // exact SimP ≈ 0.02 << 0.9
	}
	for _, c := range cases {
		q, g := hugeUncertain(c.p)
		opts := Options{
			Tau: 1, Alpha: c.alpha, Mode: ModeCSSOnly, Workers: 1,
			MaxWorlds: 1000, SampleWorlds: 400,
		}
		pairs, st, err := Join([]*graph.Graph{q}, []*ugraph.Graph{g}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.SampledPairs != 1 {
			t.Fatalf("SampledPairs = %d, want 1", st.SampledPairs)
		}
		if (len(pairs) == 1) != c.accept {
			t.Fatalf("p=%v alpha=%v: accepted=%v, want %v (exact SimP %v)",
				c.p, c.alpha, len(pairs) == 1, c.accept, exactStarSimP(c.p))
		}
		if c.accept {
			got := pairs[0].SimP
			want := exactStarSimP(c.p)
			if math.Abs(got-want) > 0.12 {
				t.Errorf("estimate %v far from exact %v", got, want)
			}
			if pairs[0].World == nil || pairs[0].Distance > 1 {
				t.Errorf("sampled pair lacks witness world: %+v", pairs[0])
			}
		}
	}
}

func TestSampleVerifyUndecidableSkips(t *testing.T) {
	// Exact SimP sits just below alpha: a small sample cannot decide.
	q, g := hugeUncertain(0.945)
	opts := Options{
		Tau: 1, Alpha: undecidableStarAlpha(), Mode: ModeCSSOnly, Workers: 1,
		MaxWorlds: 1000, SampleWorlds: 100,
	}
	pairs, st, err := Join([]*graph.Graph{q}, []*ugraph.Graph{g}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Fatalf("borderline pair accepted with tiny sample")
	}
	if st.SkippedPairs != 1 {
		t.Errorf("SkippedPairs = %d, want 1 (undecidable)", st.SkippedPairs)
	}
}

func TestSampleVerifyDeterministic(t *testing.T) {
	q, g := hugeUncertain(0.9)
	opts := Options{Tau: 1, Alpha: 0.5, Mode: ModeCSSOnly, Workers: 1, MaxWorlds: 100, SampleWorlds: 300}
	first, _, err := Join([]*graph.Graph{q}, []*ugraph.Graph{g}, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := Join([]*graph.Graph{q}, []*ugraph.Graph{g}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatal("non-deterministic accept")
	}
	if len(first) == 1 && first[0].SimP != second[0].SimP {
		t.Fatalf("non-deterministic estimate: %v vs %v", first[0].SimP, second[0].SimP)
	}
}
