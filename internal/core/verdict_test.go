package core

import (
	"testing"
	"time"

	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// TestVerdictLadderCliffs drives every budget cliff into the verdict ladder
// and checks which rung decides the pair — and that the Stats partition
// Candidates = Exact + Sampled + Approx + Skipped holds in every case.
// The suite is run under -race in CI: the ladder shares worker-local state
// only, so any cross-worker leak shows up here.
func TestVerdictLadderCliffs(t *testing.T) {
	starQ, starG := hugeUncertain(0.98)         // 3^12 worlds, SimP ≈ 0.98
	borderQ, borderG := hugeUncertain(0.945)    // SimP sits exactly at alpha
	borderAlpha := exactStarSimP(0.945)         // ≈ 0.89
	denseQ, denseG := denseBudgetBusterProbes() // exhausts a 50-state GED budget

	cases := []struct {
		name    string
		q       *graph.Graph
		g       *ugraph.Graph
		opts    Options
		results int
		verdict Verdict
		check   func(t *testing.T, st Stats)
	}{
		{
			// MaxWorlds pre-screen: the world count alone proves exact
			// enumeration hopeless; the sampling rung decides.
			name: "max-worlds cliff falls to sampling",
			q:    starQ, g: starG,
			opts:    Options{Tau: 1, Alpha: 0.5, Mode: ModeCSSOnly, Workers: 1, MaxWorlds: 10},
			results: 1,
			verdict: VerdictSampled,
			check: func(t *testing.T, st Stats) {
				if st.BudgetFallbacks != 1 || st.SampledPairs != 1 {
					t.Errorf("fallback accounting: %+v", st)
				}
			},
		},
		{
			// Mid-enumeration cliff with the sampling rung disabled: α=0.9
			// needs ~10 worlds of accumulated mass, MaxWorlds=5 cuts the
			// enumeration short, and the approximate rung re-accumulates the
			// heaviest worlds' certified mass past α.
			name: "max-worlds cliff falls to approx bounds",
			q:    starQ, g: starG,
			opts:    Options{Tau: 1, Alpha: 0.9, Mode: ModeCSSOnly, Workers: 1, MaxWorlds: 5, SampleWorlds: -1},
			results: 1,
			verdict: VerdictApproxBound,
			check: func(t *testing.T, st Stats) {
				if st.BudgetFallbacks != 1 || st.ApproxPairs != 1 || st.SampledPairs != 0 {
					t.Errorf("fallback accounting: %+v", st)
				}
			},
		},
		{
			// FallbackNone keeps the legacy cliff: over budget means skipped.
			name: "max-worlds cliff with fallback disabled skips",
			q:    starQ, g: starG,
			opts:    Options{Tau: 1, Alpha: 0.9, Mode: ModeCSSOnly, Workers: 1, MaxWorlds: 5, Fallback: FallbackNone},
			results: 0,
			check: func(t *testing.T, st Stats) {
				if st.SkippedPairs != 1 || st.SampledPairs+st.ApproxPairs != 0 {
					t.Errorf("legacy cliff accounting: %+v", st)
				}
			},
		},
		{
			// VerifyMaxStates cliff: exact GED aborts mid-world, the beam
			// bound stands in, and the decision is demoted to approximate.
			name: "verify-max-states cliff demotes to approx",
			q:    denseQ, g: denseG,
			opts:    Options{Tau: 6, Alpha: 0.5, Mode: ModeCSSOnly, Workers: 1, VerifyMaxStates: 50},
			results: -1, // accept/reject depends on the beam bound; either is sound
			check: func(t *testing.T, st Stats) {
				if st.GEDBudgetHits == 0 {
					t.Fatalf("budget never hit: %+v", st)
				}
				if st.ApproxPairs != 1 || st.ExactPairs != 0 || st.SkippedPairs != 0 {
					t.Errorf("assisted decision not demoted: %+v", st)
				}
			},
		},
		{
			// Sampling lands inside its Hoeffding margin and the 64 heaviest
			// worlds cannot push a bound across α either: undecided.
			name: "sampling-undecidable exhausts the ladder",
			q:    borderQ, g: borderG,
			opts:    Options{Tau: 1, Alpha: borderAlpha, Mode: ModeCSSOnly, Workers: 1, MaxWorlds: 1000, SampleWorlds: 100},
			results: 0,
			check: func(t *testing.T, st Stats) {
				if st.SkippedPairs != 1 {
					t.Errorf("undecided pair not skipped: %+v", st)
				}
			},
		},
		{
			// Pair deadline cliff: exact enumeration and sampling both abort
			// on the expired per-pair context; the approximate rung (strictly
			// bounded, so allowed to run late) still decides.
			name: "deadline cliff degrades to approx bounds",
			q:    starQ, g: starG,
			opts:    Options{Tau: 1, Alpha: 0.5, Mode: ModeCSSOnly, Workers: 1, PairDeadline: time.Nanosecond},
			results: 1,
			verdict: VerdictApproxBound,
			check: func(t *testing.T, st Stats) {
				if st.DeadlineHits == 0 {
					t.Errorf("deadline never recorded: %+v", st)
				}
				if st.ApproxPairs != 1 {
					t.Errorf("deadline pair not decided by approx rung: %+v", st)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pairs, st, err := Join([]*graph.Graph{c.q}, []*ugraph.Graph{c.g}, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.results >= 0 && len(pairs) != c.results {
				t.Fatalf("got %d results, want %d (stats %+v)", len(pairs), c.results, st)
			}
			if c.results == 1 && pairs[0].Verdict != c.verdict {
				t.Errorf("verdict = %v, want %v", pairs[0].Verdict, c.verdict)
			}
			if got := st.ExactPairs + st.SampledPairs + st.ApproxPairs + st.SkippedPairs; got != st.Candidates {
				t.Errorf("verdict partition %d does not cover the %d candidates: %+v", got, st.Candidates, st)
			}
			c.check(t, st)
		})
	}
}

// denseBudgetBusterProbes builds the dense 14-vertex pair whose single-world
// GED at tau=6 exhausts a 50-state A* budget (same shape as
// TestVerifyMaxStatesBudgetCounted).
func denseBudgetBusterProbes() (*graph.Graph, *ugraph.Graph) {
	mk := func(seed int) *graph.Graph {
		g := graph.New(14)
		for i := 0; i < 14; i++ {
			g.AddVertex("A")
		}
		for i := 0; i < 14; i++ {
			for j := i + 1; j < 14 && g.NumEdges() < 40; j++ {
				if (i+j+seed)%3 == 0 {
					g.MustAddEdge(i, j, "e")
				}
			}
		}
		return g
	}
	return mk(1), ugraph.FromCertain(mk(2))
}

// TestEveryPairCarriesAVerdictUnderMinimalBudgets forces every budget to its
// minimum and checks that no candidate is silently dropped: each one lands in
// exactly one verdict bucket, whichever Fallback policy is active.
func TestEveryPairCarriesAVerdictUnderMinimalBudgets(t *testing.T) {
	d, u := smallWorkload(17, 10, 10)
	for _, fb := range []Fallback{FallbackFull, FallbackSample, FallbackNone} {
		t.Run(fb.String(), func(t *testing.T) {
			opts := Options{
				Tau: 1, Alpha: 0.5, Mode: ModeSimJOpt, GroupCount: 4, Workers: 4,
				MaxWorlds: 1, VerifyMaxStates: 1, SampleWorlds: 1, Fallback: fb,
			}
			pairs, st, err := Join(d, u, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := st.ExactPairs + st.SampledPairs + st.ApproxPairs + st.SkippedPairs; got != st.Candidates {
				t.Fatalf("verdict partition %d != candidates %d: %+v", got, st.Candidates, st)
			}
			if int64(len(pairs)) != st.Results {
				t.Fatalf("%d pairs returned but Results = %d", len(pairs), st.Results)
			}
			for _, p := range pairs {
				if p.Verdict == VerdictNone || p.Verdict == VerdictUndecided {
					t.Fatalf("result pair (%d,%d) carries verdict %v", p.Q, p.G, p.Verdict)
				}
			}
		})
	}
}

// TestVerdictAndFallbackStrings pins the diagnostic names used in logs, the
// CLI output and DESIGN.md.
func TestVerdictAndFallbackStrings(t *testing.T) {
	verdicts := map[Verdict]string{
		VerdictNone: "none", VerdictExact: "exact", VerdictSampled: "sampled",
		VerdictApproxBound: "approx-bound", VerdictUndecided: "undecided", Verdict(99): "Verdict(99)",
	}
	for v, want := range verdicts {
		if v.String() != want {
			t.Errorf("Verdict %d String = %q, want %q", v, v.String(), want)
		}
	}
	for _, name := range []string{"full", "sample", "none"} {
		fb, err := ParseFallback(name)
		if err != nil || fb.String() != name {
			t.Errorf("ParseFallback(%q) = %v, %v", name, fb, err)
		}
	}
	if _, err := ParseFallback("bogus"); err == nil {
		t.Error("ParseFallback accepted bogus")
	}
	if got := Fallback(42).String(); got != "Fallback(42)" {
		t.Errorf("unknown fallback String = %q", got)
	}
}

// TestExactPairsCountedOnHappyPath checks the common case still reads as
// exact: small worlds, ample budgets, every candidate decided at rung one.
func TestExactPairsCountedOnHappyPath(t *testing.T) {
	d, u := smallWorkload(23, 8, 8)
	pairs, st, err := Join(d, u, Options{Tau: 1, Alpha: 0.5, Mode: ModeSimJ, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ExactPairs != st.Candidates || st.SampledPairs+st.ApproxPairs+st.SkippedPairs != 0 {
		t.Fatalf("happy path not fully exact: %+v", st)
	}
	for _, p := range pairs {
		if p.Verdict != VerdictExact || p.CI != 0 {
			t.Fatalf("pair (%d,%d): verdict %v CI %v, want exact with no CI", p.Q, p.G, p.Verdict, p.CI)
		}
	}
}
