package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"simjoin/internal/fault"
	"simjoin/internal/ged"
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
	borderQ, borderG := hugeUncertain(0.945)    // SimP = exactStarSimP(0.945)
	denseQ, denseG := denseBudgetBusterProbes() // exhausts a 50-state GED budget
	// unitQ/unitG: the path a –p→ x against the same path with vertex 0 ∈
	// {a, b, c}. Every world is within τ = 1, so SimP = 1, but the mass
	// 0.7 + 0.2 + 0.1 sums an ulp short of 1.
	unitQ := graph.New(2)
	unitQ.AddVertex("a")
	unitQ.AddVertex("x")
	unitQ.MustAddEdge(0, 1, "p")
	unitG := ugraph.New(2)
	unitG.AddVertex(ugraph.Label{Name: "a", P: 0.7}, ugraph.Label{Name: "b", P: 0.2}, ugraph.Label{Name: "c", P: 0.1})
	unitG.AddVertex(ugraph.Label{Name: "x", P: 1})
	unitG.MustAddEdge(0, 1, "p")
	budgetQ, budgetW, budgetD := gedBudgetPair(t)
	// budgetW with a second label on vertex 0: at τ = budgetD+1 both worlds
	// are similar, so SimP = 1.
	budgetG := ugraph.New(budgetW.NumVertices())
	budgetG.AddVertex(ugraph.Label{Name: budgetW.VertexLabel(0), P: 0.5}, ugraph.Label{Name: "Z", P: 0.5})
	for v := 1; v < budgetW.NumVertices(); v++ {
		budgetG.AddVertex(ugraph.Label{Name: budgetW.VertexLabel(v), P: 1})
	}
	for _, e := range budgetW.Edges() {
		budgetG.MustAddEdge(e.From, e.To, e.Label)
	}
	// notRejected requires a pair of SimP 1 whose worlds a GED budget left
	// unresolved to end accepted or undecided, never as a decided reject.
	notRejected := func(t *testing.T, st Stats) {
		if st.GEDBudgetHits == 0 {
			t.Fatalf("budget never hit: %+v", st)
		}
		if st.Results != 1 && st.SkippedPairs != 1 {
			t.Errorf("SimP-1 pair rejected: %+v", st)
		}
	}
	// approxAccepted requires the approximate rung alone to have decided.
	approxAccepted := func(t *testing.T, st Stats) {
		if st.ApproxPairs != 1 || st.SampledPairs != 0 || st.ExactPairs != 0 {
			t.Errorf("not an approx-bound decision: %+v", st)
		}
	}

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
			// VerifyMaxStates cliff: exact GED aborts mid-world and the beam
			// bound (here equal to the exact GED of 9) rules the world in, so
			// the accept stands, demoted to approximate.
			name: "verify-max-states cliff demotes to approx",
			q:    denseQ, g: denseG,
			opts:    Options{Tau: 9, Alpha: 0.5, Mode: ModeCSSOnly, Workers: 1, VerifyMaxStates: 50},
			results: 1,
			verdict: VerdictApproxBound,
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
			// The same cliff below the exact GED: the beam bound cannot rule
			// the world in or out, so its mass stays unresolved. Every GED
			// call of the sampling rung exhausts the budget too, and no rung
			// may reject a pair it could not resolve: undecided.
			name: "verify-max-states cliff leaves a reject undecided",
			q:    denseQ, g: denseG,
			opts:    Options{Tau: 6, Alpha: 0.5, Mode: ModeCSSOnly, Workers: 1, VerifyMaxStates: 50},
			results: 0,
			check: func(t *testing.T, st Stats) {
				if st.GEDBudgetHits == 0 {
					t.Fatalf("budget never hit: %+v", st)
				}
				if st.SkippedPairs != 1 || st.BudgetFallbacks != 1 {
					t.Errorf("unresolved pair decided: %+v", st)
				}
			},
		},
		{
			// The exact rung must count a world whose GED exhausted the
			// budget, and that the beam bound cannot rule in, as unresolved:
			// counted dissimilar, it early-rejects the pair's one world.
			name: "verify-max-states cliff leaves an unresolved world open",
			q:    budgetQ, g: ugraph.FromCertain(budgetW),
			opts:    Options{Tau: budgetD, Alpha: 0.5, Mode: ModeCSSOnly, Workers: 1, VerifyMaxStates: 20},
			results: -1,
			check:   notRejected,
		},
		{
			// The sampling rung must count a world whose GED call errs as
			// unknown, not as a miss: MaxWorlds sends the pair straight to
			// sampling, where the GED calls exhaust the budget.
			name: "sampled GED budget hits are not misses",
			q:    budgetQ, g: budgetG,
			opts: Options{Tau: budgetD + 1, Alpha: 0.5, Mode: ModeCSSOnly, Workers: 1,
				MaxWorlds: 1, VerifyMaxStates: 20, SampleWorlds: 200},
			results: -1,
			check:   notRejected,
		},
		{
			// Sampling lands inside its Hoeffding margin and the 64 heaviest
			// worlds cannot push a bound across α either: undecided.
			name: "sampling-undecidable exhausts the ladder",
			q:    borderQ, g: borderG,
			opts:    Options{Tau: 1, Alpha: undecidableStarAlpha(), Mode: ModeCSSOnly, Workers: 1, MaxWorlds: 1000, SampleWorlds: 100},
			results: 0,
			check: func(t *testing.T, st Stats) {
				if st.SkippedPairs != 1 {
					t.Errorf("undecided pair not skipped: %+v", st)
				}
			},
		},
		{
			// The same star at α = SimP is a Def. 7 pair: sampling cannot
			// decide it, and the heaviest worlds' certified mass reaches α
			// up to filter.MassSlack.
			name: "SimP-equals-alpha star ends approx-bound",
			q:    borderQ, g: borderG,
			opts:    Options{Tau: 1, Alpha: exactStarSimP(0.945), Mode: ModeCSSOnly, Workers: 1, MaxWorlds: 1000, SampleWorlds: 100},
			results: 1,
			verdict: VerdictApproxBound,
			check:   approxAccepted,
		},
		{
			// α = 1 with a mass an ulp short of 1, in simjoind's sampled
			// tier: sampling cannot reach 1, and the approximate rung must
			// compare against α up to filter.MassSlack, not reject outright.
			name: "alpha-1 mass an ulp short: sampled tier",
			q:    unitQ, g: unitG,
			opts:    Options{Tau: 1, Alpha: 1, Mode: ModeSimJ, Workers: 1, MaxWorlds: 1},
			results: 1,
			verdict: VerdictApproxBound,
			check:   approxAccepted,
		},
		{
			// The same pair in simjoind's approx tier (no sampling).
			name: "alpha-1 mass an ulp short: approx tier",
			q:    unitQ, g: unitG,
			opts:    Options{Tau: 1, Alpha: 1, Mode: ModeSimJ, Workers: 1, MaxWorlds: 1, SampleWorlds: -1},
			results: 1,
			verdict: VerdictApproxBound,
			check:   approxAccepted,
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

// gedBudgetPair draws random certain pairs of 6–10 vertices from a fixed
// seed until one, at τ = its exact GED d, exhausts a 20-state A* budget while
// the beam-search bound stays above d: at that budget no rung can rule its
// world in or out.
func gedBudgetPair(t *testing.T) (q, w *graph.Graph, d int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for draw := 0; draw < 50; draw++ {
		n1, n2 := 6+rng.Intn(5), 6+rng.Intn(5)
		q := randomCertain(rng, n1, n1+rng.Intn(n1))
		w := randomCertain(rng, n2, n2+rng.Intn(n2))
		res, err := ged.Compute(q, w, ged.Options{Threshold: 32})
		if err != nil || res.Exceeded {
			continue
		}
		if beam, _ := ged.Approximate(q, w, approxBeam); beam <= res.Distance {
			continue
		}
		if _, err := ged.Compute(q, w, ged.Options{Threshold: res.Distance, MaxStates: 20}); err == nil {
			continue
		}
		return q, w, res.Distance
	}
	t.Fatal("no pair in 50 draws exhausts the GED budget under a loose beam bound")
	return nil, nil, 0
}

// TestLadderHonestOnStars checks the ladder's decisions against the closed
// form of exactStarSimP. Each run joins one star query against copies of its
// uncertain star, so every (Q, G) slot draws its own sample. MaxWorlds sends
// every slot past the exact rung. A 12-state GED cap (a similar star world
// needs 13) or an injected GED budget fault leaves worlds unresolved. The
// sampling rung's wrong decisions must stay within a binomial tolerance of
// δ = 0.01, no approx-bound decision may be wrong, and every approx-bound
// SimP must be at most the exact SimP. The approximate rung draws no sample,
// so the run without sampling needs one slot.
func TestLadderHonestOnStars(t *testing.T) {
	budgets := []struct {
		name      string
		slots     int
		opts      Options
		failpoint string
	}{
		{"sampled", 32, Options{MaxWorlds: 10, SampleWorlds: 128}, ""},
		{"sampled-states", 8, Options{MaxWorlds: 10, SampleWorlds: 128, VerifyMaxStates: 12}, ""},
		{"sampled-fault", 16, Options{MaxWorlds: 10, SampleWorlds: 128}, "ged.compute=budget#400"},
		{"unsampled", 1, Options{MaxWorlds: 10, SampleWorlds: -1}, ""},
	}
	sampled, wrong, approx := 0, 0, 0
	for _, p := range []float64{0.85, 0.9} { // SimP ≈ 0.44 and 0.66
		exact := exactStarSimP(p)
		q, g := hugeUncertain(p)
		for _, alpha := range []float64{exact - 0.2, exact + 0.2} {
			similar := exact >= alpha
			for _, b := range budgets {
				name := fmt.Sprintf("p=%v alpha=%.3f budget=%s", p, alpha, b.name)
				u := make([]*ugraph.Graph, b.slots)
				for i := range u {
					u[i] = g
				}
				opts := b.opts
				opts.Tau, opts.Alpha, opts.Mode, opts.Workers = 1, alpha, ModeCSSOnly, 1
				if b.failpoint != "" {
					if err := fault.Enable(b.failpoint); err != nil {
						t.Fatal(err)
					}
				}
				pairs, st, err := Join([]*graph.Graph{q}, u, opts)
				fault.Reset()
				if err != nil {
					t.Fatal(err)
				}
				if st.Candidates != int64(b.slots) || st.ExactPairs != 0 {
					t.Fatalf("%s: %d candidates, %d exact: %+v", name, st.Candidates, st.ExactPairs, st)
				}
				var sampledAccepts, approxAccepts int64
				for _, pr := range pairs {
					switch pr.Verdict {
					case VerdictSampled:
						sampledAccepts++
					case VerdictApproxBound:
						approxAccepts++
						if pr.SimP > exact+1e-9 {
							t.Fatalf("%s: approx-bound SimP %v above the exact %v", name, pr.SimP, exact)
						}
					}
				}
				if similar && st.ApproxPairs != approxAccepts || !similar && approxAccepts != 0 {
					t.Fatalf("%s: approx-bound decisions contradict SimP %v: %d of %d accepted",
						name, exact, approxAccepts, st.ApproxPairs)
				}
				sampled += int(st.SampledPairs)
				approx += int(st.ApproxPairs)
				if similar {
					wrong += int(st.SampledPairs - sampledAccepts)
				} else {
					wrong += int(sampledAccepts)
				}
			}
		}
	}
	if sampled == 0 || approx == 0 {
		t.Fatalf("sampled %d, approx %d: a rung never decided", sampled, approx)
	}
	if wrong > binomialTolerance(sampled, 0.01) {
		t.Fatalf("%d of %d sampled decisions wrong, over the tolerance %d for δ = 0.01",
			wrong, sampled, binomialTolerance(sampled, 0.01))
	}
}

// TestEveryPairCarriesAVerdictUnderMinimalBudgets forces every budget to its
// minimum and checks that no candidate is silently dropped: each one lands in
// exactly one verdict bucket.
func TestEveryPairCarriesAVerdictUnderMinimalBudgets(t *testing.T) {
	d, u := smallWorkload(17, 10, 10)
	opts := Options{
		Tau: 1, Alpha: 0.5, Mode: ModeSimJOpt, GroupCount: 4, Workers: 4,
		MaxWorlds: 1, VerifyMaxStates: 1, SampleWorlds: 1,
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
}

// TestVerdictStrings pins the diagnostic names used in logs, the CLI output
// and DESIGN.md.
func TestVerdictStrings(t *testing.T) {
	verdicts := map[Verdict]string{
		VerdictNone: "none", VerdictExact: "exact", VerdictSampled: "sampled",
		VerdictApproxBound: "approx-bound", VerdictUndecided: "undecided", Verdict(99): "Verdict(99)",
	}
	for v, want := range verdicts {
		if v.String() != want {
			t.Errorf("Verdict %d String = %q, want %q", v, v.String(), want)
		}
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
