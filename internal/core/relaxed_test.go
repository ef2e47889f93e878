package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"simjoin/internal/filter"
	"simjoin/internal/ged"
	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
	"simjoin/internal/workload"
)

// exactRun is everything one exact-rung run of a pair exposes: the pair it
// returns, how the rung ended, and the rung's world and early-exit tallies.
type exactRun struct {
	p                              Pair
	ok, assisted                   bool
	out                            exactOutcome
	worlds, accepts, rejects       int64
	relaxedPairs, relaxedFallbacks int64
	worldLabels                    string
}

// runExact runs verifyExact on one pair, over its own copy of the groups,
// scoring worlds after the first against the relaxed lists, or — perWorld —
// with one GED per world (testPerWorld).
func runExact(pi *pairIn, groups []ugraph.Group, opts *Options, perWorld bool) exactRun {
	testPerWorld = perWorld
	defer func() { testPerWorld = false }()
	st := newRec(newJoinObs(opts), opts)
	if groups != nil {
		groups = append([]ugraph.Group(nil), groups...)
	}
	ctx := context.Background()
	p, ok, out, assisted := verifyExact(ctx, ctx, pi, groups, opts, &st)
	r := exactRun{p: p, ok: ok, assisted: assisted, out: out,
		worlds: st.WorldsChecked, accepts: st.EarlyAccepts, rejects: st.EarlyRejects,
		relaxedPairs: st.RelaxedPairs, relaxedFallbacks: st.RelaxedFallbacks}
	if p.World != nil {
		r.worldLabels = fmt.Sprint(p.World.VertexLabelIDs())
	}
	return r
}

// diffExact requires the list path and the per-world loop to agree on
// everything a pair exposes: verdict, SimP bits, Distance, World labels,
// Mapping, and the worlds and early exits counted.
func diffExact(t *testing.T, ctxt string, lists, perWorld exactRun) {
	t.Helper()
	a, b := lists, perWorld
	switch {
	case a.ok != b.ok || a.out != b.out || a.assisted != b.assisted:
		t.Fatalf("%s: verdict (ok %v, outcome %d, assisted %v), per-world (ok %v, outcome %d, assisted %v)",
			ctxt, a.ok, a.out, a.assisted, b.ok, b.out, b.assisted)
	case math.Float64bits(a.p.SimP) != math.Float64bits(b.p.SimP):
		t.Fatalf("%s: SimP %v, per-world %v", ctxt, a.p.SimP, b.p.SimP)
	case a.p.Distance != b.p.Distance:
		t.Fatalf("%s: Distance %d, per-world %d", ctxt, a.p.Distance, b.p.Distance)
	case a.worldLabels != b.worldLabels:
		t.Fatalf("%s: World %s, per-world %s", ctxt, a.worldLabels, b.worldLabels)
	case !reflect.DeepEqual(a.p.Mapping, b.p.Mapping):
		t.Fatalf("%s: Mapping %v, per-world %v", ctxt, a.p.Mapping, b.p.Mapping)
	case a.worlds != b.worlds || a.accepts != b.accepts || a.rejects != b.rejects:
		t.Fatalf("%s: worlds/accepts/rejects %d/%d/%d, per-world %d/%d/%d",
			ctxt, a.worlds, a.accepts, a.rejects, b.worlds, b.accepts, b.rejects)
	}
}

// wildcardWorkload is smallWorkload's shape with wildcards on both sides:
// query vertices labelled "?x", and uncertain vertices whose candidates mix
// a wildcard with concrete labels. Graphs hold 16 to 729 worlds, on both
// sides of relaxedMinWorlds at τ = 1 to 3.
func wildcardWorkload(seed int64, nd, nu int) ([]*graph.Graph, []*ugraph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	d := make([]*graph.Graph, nd)
	for i := range d {
		d[i] = randomCertain(rng, 2+rng.Intn(5), rng.Intn(6))
	}
	names := []string{"A", "B", "C", "?y"}
	u := make([]*ugraph.Graph, nu)
	for i := range u {
		n := 5 + rng.Intn(2)
		g := ugraph.New(n)
		for v := 0; v < n; v++ {
			k := 1 + rng.Intn(3)
			if v < 4 {
				k = 2 + rng.Intn(2)
			}
			var ls []ugraph.Label
			for j, pi := range rng.Perm(len(names))[:k] {
				ls = append(ls, ugraph.Label{Name: names[pi], P: float64(j+1) / float64(k*(k+1)/2)})
			}
			g.AddVertex(ls...)
		}
		for t := 0; t < 3*n && g.NumEdges() < n; t++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				_ = g.AddEdge(a, b, []string{"p", "q"}[rng.Intn(2)])
			}
		}
		u[i] = g
	}
	return d, u
}

// candidateWorkload exercises the search against candidate-restricted
// relaxed vertices. Each uncertain graph has 4 or 5 vertices; its first four
// carry two or three labels drawn from A–D and the wildcard ?y (16 to 243
// worlds). Each graph gets perG queries built from it: its edges, each vertex
// labelled with one of its candidates, with E (no graph's candidate) or with
// the wildcard ?x, plus up to two extra vertices with one edge each, so that
// most queries have more vertices than their graph and the search swaps
// sides. D occurs in no query.
func candidateWorkload(seed int64, nu, perG int) ([]*graph.Graph, []*ugraph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"A", "B", "C", "D", "?y"}
	var d []*graph.Graph
	u := make([]*ugraph.Graph, nu)
	for i := range u {
		n := 4 + rng.Intn(2)
		g := ugraph.New(n)
		for v := 0; v < n; v++ {
			k := 1 + rng.Intn(2)
			if v < 4 {
				k = 2 + rng.Intn(2)
			}
			var ls []ugraph.Label
			for j, pi := range rng.Perm(len(names))[:k] {
				ls = append(ls, ugraph.Label{Name: names[pi], P: float64(j+1) / float64(k*(k+1)/2)})
			}
			g.AddVertex(ls...)
		}
		for t := 0; t < 3*n && g.NumEdges() < n; t++ {
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				_ = g.AddEdge(a, b, []string{"p", "q"}[rng.Intn(2)])
			}
		}
		u[i] = g
		for j := 0; j < perG; j++ {
			m := n + rng.Intn(3)
			q := graph.New(m)
			for v := 0; v < m; v++ {
				switch r := rng.Intn(6); {
				case v >= n || r == 0:
					q.AddVertex([]string{"A", "B", "E"}[rng.Intn(3)])
				case r == 1:
					q.AddVertex("?x")
				default:
					ls := g.Labels(v)
					name := ls[rng.Intn(len(ls))].Name
					if name == "?y" {
						name = "C"
					}
					q.AddVertex(name)
				}
			}
			for _, e := range g.Edges() {
				q.MustAddEdge(e.From, e.To, e.Label)
			}
			for v := n; v < m; v++ {
				q.MustAddEdge(rng.Intn(n), v, "p")
			}
			d = append(d, q)
		}
	}
	return d, u
}

// capPair is a pair whose relaxed search finds more than ged.MaxMappings
// mappings within τ: seven isolated query vertices, four of them wildcards,
// against seven isolated two-label vertices. No world decides it alone at
// α = 0.5, so the lists are built — and the cap trips.
func capPair() (*graph.Graph, *ugraph.Graph) {
	q := graph.New(7)
	g := ugraph.New(7)
	for i := 0; i < 7; i++ {
		if i < 4 {
			q.AddVertex("?x")
		} else {
			q.AddVertex("A")
		}
		g.AddVertex(ugraph.Label{Name: "A", P: 0.6}, ugraph.Label{Name: "B", P: 0.4})
	}
	return q, g
}

// wildcardCandidatePair is a pair whose required vertices often take a
// wildcard label: four isolated query vertices against five isolated
// vertices with candidates {B, ?y, C}, 243 worlds.
func wildcardCandidatePair() (*graph.Graph, *ugraph.Graph) {
	q := graph.New(4)
	for _, l := range []string{"A", "A", "B", "C"} {
		q.AddVertex(l)
	}
	g := ugraph.New(5)
	for i := 0; i < 5; i++ {
		g.AddVertex(ugraph.Label{Name: "B", P: 0.5}, ugraph.Label{Name: "?y", P: 0.3}, ugraph.Label{Name: "C", P: 0.2})
	}
	return q, g
}

// TestRelaxedListsMatchPerWorld runs every pair of seeded ER, adversarial,
// wildcard and candidate workloads through the exact rung twice — worlds
// after the first scored against the relaxed lists, and one GED per world —
// and requires identical outcomes. The configurations cover q-side
// wildcards, wildcard candidate labels, query labels outside a vertex's
// candidates, queries larger than their graph (the search swaps sides),
// conditioned groups, DisableEarlyExit, a small VerifyMaxStates, the mapping
// cap and MaxWorlds = 1; vacuity guards require the list path and its
// fallback both to have run, and pairs with fewer than relaxedMinWorlds(τ)
// worlds must not build lists.
func TestRelaxedListsMatchPerWorld(t *testing.T) {
	type corpus struct {
		name string
		d    []*graph.Graph
		u    []*ugraph.Graph
	}
	erD, erU := workload.ER(workload.SyntheticConfig{Seed: 3, Count: 10, Vertices: 7, Edges: 9,
		LabelAlphabet: 4, UncertainVertices: 5, LabelsPerVertex: 3, PerturbEdits: 1})
	advD, advU := workload.Adversarial(workload.AdversarialConfig{
		Seed: 5, Queries: 6, Uncertain: 6, Families: 2,
		Vertices: 7, Chords: 1, FamilyLabels: 3, LabelsPerVertex: 2,
	})
	wD, wU := wildcardWorkload(43, 10, 10)
	capQ, capG := capPair()
	wcQ, wcG := wildcardCandidatePair()
	cD, cU := candidateWorkload(61, 6, 2)
	corpora := []corpus{
		{"er", erD, erU},
		{"adversarial", advD, advU},
		{"wildcard", wD, wU},
		{"cap", append(wD[:2:2], capQ), []*ugraph.Graph{capG, wU[0]}},
		{"wildcard-candidates", []*graph.Graph{wcQ}, []*ugraph.Graph{wcG}},
		{"candidates", cD, cU},
	}
	type config struct {
		name   string
		opts   Options
		groups bool
	}
	var configs []config
	for _, tau := range []int{1, 2, 3} {
		for _, alpha := range []float64{0.3, 0.5, 0.9} {
			base := Options{Tau: tau, Alpha: alpha, KeepMappings: true}
			configs = append(configs, config{fmt.Sprintf("tau=%d alpha=%v", tau, alpha), base, false})
			grouped := base
			grouped.GroupCount = 4
			configs = append(configs, config{fmt.Sprintf("tau=%d alpha=%v groups", tau, alpha), grouped, true})
		}
		noExit := Options{Tau: tau, Alpha: 0.5, KeepMappings: true, DisableEarlyExit: true, GroupCount: 3}
		configs = append(configs, config{fmt.Sprintf("tau=%d no-early-exit", tau), noExit, true})
		tight := Options{Tau: tau, Alpha: 0.5, KeepMappings: true, VerifyMaxStates: 12}
		configs = append(configs, config{fmt.Sprintf("tau=%d VerifyMaxStates=12", tau), tight, false})
		one := Options{Tau: tau, Alpha: 0.5, KeepMappings: true, MaxWorlds: 1}
		configs = append(configs, config{fmt.Sprintf("tau=%d MaxWorlds=1", tau), one, false})
	}
	var relaxed, fallbacks int64
	for _, c := range corpora {
		qsigs, gsigs := filter.NewQSigs(c.d), filter.NewGSigs(c.u)
		qsides := BuildIndex(c.d).qsides
		for _, cfg := range configs {
			opts := cfg.opts
			if err := opts.normalise(); err != nil {
				t.Fatal(err)
			}
			for qi, q := range c.d {
				for gi, g := range c.u {
					pi := &pairIn{q: q, g: g, qs: qsigs[qi], gs: gsigs[gi], qp: qsides[qi], qi: qi, gi: gi}
					var groups []ugraph.Group
					if cfg.groups {
						lb := filter.CSSLowerBoundUncertainSig(pi.qs, pi.gs)
						_, groups, _, _ = filter.GroupBound(new(filter.Scratch), pi.qs, pi.gs, lb, opts.Tau, opts.Alpha, opts.GroupCount)
					}
					a := runExact(pi, groups, &opts, false)
					b := runExact(pi, groups, &opts, true)
					diffExact(t, fmt.Sprintf("%s %s pair (%d,%d)", c.name, cfg.name, qi, gi), a, b)
					if b.relaxedPairs+b.relaxedFallbacks != 0 {
						t.Fatalf("%s %s: the per-world reference built lists", c.name, cfg.name)
					}
					worlds := g.WorldCountFloat()
					if groups != nil {
						worlds = 0
						for _, gr := range groups {
							worlds += gr.G.WorldCountFloat()
						}
					}
					// relaxedMinWorlds is 2^(τ+3): 16, 32 and 64 worlds here.
					if worlds < float64(int(1)<<(opts.Tau+3)) && a.relaxedPairs+a.relaxedFallbacks != 0 {
						t.Fatalf("%s %s pair (%d,%d): built lists over %v worlds", c.name, cfg.name, qi, gi, worlds)
					}
					relaxed += a.relaxedPairs
					fallbacks += a.relaxedFallbacks
				}
			}
		}
	}
	if relaxed == 0 || fallbacks == 0 {
		t.Fatalf("vacuous: %d pairs scored against lists, %d fallbacks", relaxed, fallbacks)
	}
}

// TestRelaxedCapFallsBack pins the mapping-cap fallback on capPair: the list
// build trips ged.MaxMappings, is counted, and the pair is decided world by
// world exactly as without lists.
func TestRelaxedCapFallsBack(t *testing.T) {
	q, g := capPair()
	opts := Options{Tau: 2, Alpha: 0.5, KeepMappings: true}
	if err := opts.normalise(); err != nil {
		t.Fatal(err)
	}
	pi := &pairIn{q: q, g: g, qs: filter.NewQSig(q), gs: filter.NewGSig(g), qp: ged.Prepare(q)}
	n := 0
	if _, err := ged.ComputeAll(q, pi.gs.Relaxed(), ged.Options{Threshold: opts.Tau}, func(ged.Mapping, int) { n++ }); err != ged.ErrTooManyMappings {
		t.Fatalf("relaxed search: err %v after %d mappings, want ErrTooManyMappings", err, n)
	}
	a := runExact(pi, nil, &opts, false)
	if a.relaxedFallbacks != 1 || a.relaxedPairs != 0 {
		t.Fatalf("relaxed pairs %d, fallbacks %d; want 0, 1", a.relaxedPairs, a.relaxedFallbacks)
	}
	diffExact(t, "cap pair", a, runExact(pi, nil, &opts, true))
}

// TestRelaxedJoinMatchesPerWorld diffs whole joins with and without the
// lists — the verdict ladder after the exact rung included — on wildcard
// corpora, with MaxWorlds = 1 (the service's degraded tiers) among the
// configurations.
func TestRelaxedJoinMatchesPerWorld(t *testing.T) {
	for _, c := range []struct {
		seed int64
		opts Options
	}{
		{85, Options{Tau: 2, Alpha: 0.4, Mode: ModeSimJOpt, GroupCount: 2, KeepMappings: true, Workers: 2}},
		{7, Options{Tau: 3, Alpha: 0.6, Mode: ModeSimJ, DisableEarlyExit: true, KeepMappings: true, Workers: 2}},
		{7, Options{Tau: 2, Alpha: 0.4, Mode: ModeSimJ, MaxWorlds: 1, KeepMappings: true, Workers: 2}},
	} {
		d, u := wildcardWorkload(c.seed, 16, 16)
		opts := c.opts
		ctxt := fmt.Sprintf("seed=%d tau=%d alpha=%v mode=%v maxWorlds=%d", c.seed, opts.Tau, opts.Alpha, opts.Mode, opts.MaxWorlds)
		got, gst, err := Join(d, u, opts)
		if err != nil {
			t.Fatal(err)
		}
		testPerWorld = true
		want, wst, err := Join(d, u, opts)
		testPerWorld = false
		if err != nil {
			t.Fatal(err)
		}
		assertSamePairs(t, ctxt, got, want)
		for i := range got {
			if got[i].Verdict != want[i].Verdict || !reflect.DeepEqual(got[i].Mapping, want[i].Mapping) ||
				fmt.Sprint(got[i].World.VertexLabelIDs()) != fmt.Sprint(want[i].World.VertexLabelIDs()) {
				t.Fatalf("%s pair (%d,%d): verdict/mapping/world differ", ctxt, got[i].Q, got[i].G)
			}
		}
		for _, f := range []struct {
			name      string
			got, want int64
		}{
			{"WorldsChecked", gst.WorldsChecked, wst.WorldsChecked},
			{"EarlyAccepts", gst.EarlyAccepts, wst.EarlyAccepts},
			{"EarlyRejects", gst.EarlyRejects, wst.EarlyRejects},
			{"ExactPairs", gst.ExactPairs, wst.ExactPairs},
			{"SampledPairs", gst.SampledPairs, wst.SampledPairs},
			{"ApproxPairs", gst.ApproxPairs, wst.ApproxPairs},
			{"SkippedPairs", gst.SkippedPairs, wst.SkippedPairs},
			{"BudgetFallbacks", gst.BudgetFallbacks, wst.BudgetFallbacks},
		} {
			if f.got != f.want {
				t.Fatalf("%s: %s %d, per-world %d", ctxt, f.name, f.got, f.want)
			}
		}
		if opts.MaxWorlds == 1 && gst.RelaxedPairs+gst.RelaxedFallbacks != 0 {
			t.Fatalf("%s: MaxWorlds = 1 built lists", ctxt)
		}
		if opts.MaxWorlds == 0 && gst.RelaxedPairs == 0 {
			t.Fatalf("%s: vacuous, no pair scored against lists", ctxt)
		}
	}
}

// TestRelaxedKeepsTheGEDsMapping pins KeepMappings on a pair with tied
// optimal mappings: q's two "A" vertices against seven isolated {B, C, A}
// vertices. The best world (the first with two A labels) is list-scored,
// and the first listed mapping attaining its distance is not the one A*
// finds on it; the result must carry A*'s, as the per-world loop does.
func TestRelaxedKeepsTheGEDsMapping(t *testing.T) {
	q := graph.New(2)
	q.AddVertex("A")
	q.AddVertex("A")
	g := ugraph.New(7)
	for i := 0; i < 7; i++ {
		g.AddVertex(ugraph.Label{Name: "B", P: 0.5}, ugraph.Label{Name: "C", P: 0.3}, ugraph.Label{Name: "A", P: 0.2})
	}
	opts := Options{Tau: 6, Alpha: 0.5, DisableEarlyExit: true, KeepMappings: true}
	if err := opts.normalise(); err != nil {
		t.Fatal(err)
	}
	pi := &pairIn{q: q, g: g, qs: filter.NewQSig(q), gs: filter.NewGSig(g), qp: ged.Prepare(q)}
	a := runExact(pi, nil, &opts, false)
	if !a.ok || a.relaxedPairs != 1 {
		t.Fatalf("accepted %v with %d list builds; want an accepted list-scored pair", a.ok, a.relaxedPairs)
	}
	if !listedMappingDiffers(pi, &opts, a.p) {
		t.Fatal("vacuous: the first listed mapping is the GED's")
	}
	diffExact(t, "tied pair", a, runExact(pi, nil, &opts, true))
}

// listedMappingDiffers reports whether the first listed mapping attaining a
// result's distance on its witness world is not the result's Mapping (the
// one A* finds on that world).
func listedMappingDiffers(pi *pairIn, opts *Options, p Pair) bool {
	st := newRec(newJoinObs(opts), opts)
	if !st.buildRelaxed(pi, opts) {
		return false
	}
	d, at := st.rl.score(p.World.VertexLabelIDs(), opts.Tau)
	return d == p.Distance && !reflect.DeepEqual(st.rl.mapping(at), p.Mapping)
}
