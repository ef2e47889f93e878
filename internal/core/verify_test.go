package core

import (
	"testing"

	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

func TestSimJOptSingleGroupEqualsSimJ(t *testing.T) {
	d, u := smallWorkload(31, 8, 8)
	a, _, err := Join(d, u, Options{Tau: 1, Alpha: 0.6, Mode: ModeSimJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Join(d, u, Options{Tau: 1, Alpha: 0.6, Mode: ModeSimJOpt, GroupCount: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("GroupCount=1 opt returned %d pairs, SimJ %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Q != b[i].Q || a[i].G != b[i].G {
			t.Fatalf("pair %d differs", i)
		}
	}
}

func TestKeepMappingsOff(t *testing.T) {
	d, u := smallWorkload(33, 6, 6)
	pairs, _, err := Join(d, u, Options{Tau: 1, Alpha: 0.5, Mode: ModeSimJ, Workers: 1, KeepMappings: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Skip("no pairs in this configuration")
	}
	for _, p := range pairs {
		if p.Mapping != nil {
			t.Fatal("mapping kept despite KeepMappings=false")
		}
		if p.World == nil {
			t.Fatal("witness world missing")
		}
	}
}

func TestVerifyMaxStatesBudgetCounted(t *testing.T) {
	// Dense 14-vertex graphs at tau=6 exhaust a 100-state budget.
	mk := func(seed int64) *graph.Graph {
		g := graph.New(14)
		for i := 0; i < 14; i++ {
			g.AddVertex("A")
		}
		for i := 0; i < 14; i++ {
			for j := i + 1; j < 14 && g.NumEdges() < 40; j++ {
				if (i+j+int(seed))%3 == 0 {
					g.MustAddEdge(i, j, "e")
				}
			}
		}
		return g
	}
	q := mk(1)
	g := ugraph.FromCertain(mk(2))
	_, st, err := Join([]*graph.Graph{q}, []*ugraph.Graph{g},
		Options{Tau: 6, Alpha: 0.5, Mode: ModeCSSOnly, Workers: 1, VerifyMaxStates: 50})
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates == 1 && st.GEDCalls == 1 && st.GEDBudgetHits != 1 {
		t.Errorf("budget hit not recorded: %+v", st)
	}
}

func TestSkippedPairsAccounting(t *testing.T) {
	// A pair whose SimP sits just below α: the world count is over MaxWorlds,
	// the sample lands inside its Hoeffding margin, and the 64 heaviest
	// worlds push neither approximate bound across α. It still counts as a
	// candidate (it entered verification), lands in SkippedPairs instead of
	// Results, and keeps the worlds each rung examined in WorldsChecked:
	// the default 512 samples plus the approximate rung's 64.
	q, g := hugeUncertain(0.945)
	_, st, err := Join([]*graph.Graph{q}, []*ugraph.Graph{g},
		Options{Tau: 1, Alpha: undecidableStarAlpha(), Mode: ModeCSSOnly, Workers: 1, MaxWorlds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates != 1 {
		t.Fatalf("undecidable pair not counted as candidate: %+v", st)
	}
	if st.SkippedPairs != 1 {
		t.Fatalf("undecidable pair not counted in SkippedPairs: %+v", st)
	}
	if st.WorldsChecked != 512+approxWorlds {
		t.Fatalf("partial WorldsChecked not kept: got %d, want %d", st.WorldsChecked, 512+approxWorlds)
	}
	if st.Results != 0 {
		t.Fatalf("skipped pair reported as result: %+v", st)
	}
	if st.BudgetFallbacks != 1 {
		t.Fatalf("cliff not counted as budget fallback: %+v", st)
	}
}

func TestGroupedVerificationExactWithEarlyExitOff(t *testing.T) {
	d, u := smallWorkload(37, 6, 6)
	want := naiveJoin(d, u, 1, 0.4)
	got, _, err := Join(d, u, Options{
		Tau: 1, Alpha: 0.4, Mode: ModeSimJOpt, GroupCount: 5, Workers: 1, DisableEarlyExit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("grouped exact: %d pairs, want %d", len(got), len(want))
	}
	for _, p := range got {
		exact := want[[2]int{p.Q, p.G}]
		if p.SimP < exact-1e-9 || p.SimP > exact+1e-9 {
			t.Fatalf("grouped SimP %v != exact %v", p.SimP, exact)
		}
	}
}

func TestPairWorldIndexingMatchesUncertainGraph(t *testing.T) {
	// The witness world's vertex indices must align with the uncertain
	// graph's (template generation depends on it).
	d, u := smallWorkload(41, 5, 5)
	pairs, _, err := Join(d, u, Options{Tau: 2, Alpha: 0.3, Mode: ModeSimJ, Workers: 1, KeepMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		g := u[p.G]
		w := p.World
		if w.NumVertices() != g.NumVertices() || w.NumEdges() != g.NumEdges() {
			t.Fatalf("witness world shape differs from uncertain graph")
		}
		for v := 0; v < w.NumVertices(); v++ {
			found := false
			for _, l := range g.Labels(v) {
				if l.Name == w.VertexLabel(v) {
					found = true
				}
			}
			if !found {
				t.Fatalf("world label %q not among candidates of vertex %d", w.VertexLabel(v), v)
			}
		}
	}
}
