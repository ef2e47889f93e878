package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"simjoin/internal/filter"
	"simjoin/internal/ged"
	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

func randomCertain(rng *rand.Rand, n, e int) *graph.Graph {
	labels := []string{"A", "B", "C", "D", "?x"}
	elabels := []string{"p", "q", "type"}
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

func randomUncertain(rng *rand.Rand, n, e, maxLabels int) *ugraph.Graph {
	names := []string{"A", "B", "C", "D"}
	g := ugraph.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			g.AddVertex(ugraph.Label{Name: "?x", P: 1})
			continue
		}
		k := 1 + rng.Intn(maxLabels)
		perm := rng.Perm(len(names))[:k]
		var ls []ugraph.Label
		rest := 1.0
		for j, pi := range perm {
			p := rest
			if j < k-1 {
				p = rest * (0.3 + 0.4*rng.Float64())
			}
			ls = append(ls, ugraph.Label{Name: names[pi], P: p})
			rest -= p
		}
		g.AddVertex(ls...)
	}
	elabels := []string{"p", "q", "type"}
	for t := 0; t < e*3 && g.NumEdges() < e; t++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		_ = g.AddEdge(u, v, elabels[rng.Intn(len(elabels))])
	}
	return g
}

// naiveJoin is the brute-force oracle: full possible-world enumeration with
// exact GED for every pair. Its floating-point world sum can land a few ulps
// below an exact SimP of 1, so it compares against α up to filter.MassSlack
// like the join does; checkAnswerSet bounds what that slack may admit.
func naiveJoin(d []*graph.Graph, u []*ugraph.Graph, tau int, alpha float64) map[[2]int]float64 {
	out := make(map[[2]int]float64)
	for qi, q := range d {
		for gi, g := range u {
			simP := 0.0
			g.Worlds(func(w *graph.Graph, p float64) bool {
				if _, ok := ged.WithinThreshold(q, w, tau); ok {
					simP += p
				}
				return true
			})
			if simP >= alpha-filter.MassSlack {
				out[[2]int{qi, gi}] = simP
			}
		}
	}
	return out
}

func smallWorkload(seed int64, nd, nu int) ([]*graph.Graph, []*ugraph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	d := make([]*graph.Graph, nd)
	for i := range d {
		d[i] = randomCertain(rng, 2+rng.Intn(4), rng.Intn(5))
	}
	u := make([]*ugraph.Graph, nu)
	for i := range u {
		u[i] = randomUncertain(rng, 2+rng.Intn(3), rng.Intn(4), 2)
	}
	return d, u
}

// subNormalWorkload is smallWorkload with, half the time, incomplete vertex
// label distributions (TotalMass < 1), so SimP can fall below α on the mass
// alone.
func subNormalWorkload(seed int64, nd, nu int) ([]*graph.Graph, []*ugraph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	d := make([]*graph.Graph, nd)
	for i := range d {
		d[i] = randomCertain(rng, 2+rng.Intn(4), rng.Intn(5))
	}
	names := []string{"A", "B", "C", "D"}
	u := make([]*ugraph.Graph, nu)
	for i := range u {
		n := 2 + rng.Intn(3)
		g := ugraph.New(n)
		for v := 0; v < n; v++ {
			scale := 1.0
			if rng.Intn(2) == 0 {
				scale = 0.3 + 0.6*rng.Float64()
			}
			k := 1 + rng.Intn(2)
			perm := rng.Perm(len(names))[:k]
			var ls []ugraph.Label
			rest := scale
			for j, pi := range perm {
				p := rest
				if j < k-1 {
					p = rest * (0.3 + 0.4*rng.Float64())
				}
				ls = append(ls, ugraph.Label{Name: names[pi], P: p})
				rest -= p
			}
			g.AddVertex(ls...)
		}
		for t := 0; t < 9 && g.NumEdges() < rng.Intn(4); t++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				_ = g.AddEdge(a, b, "p")
			}
		}
		u[i] = g
	}
	return d, u
}

// assertSamePairs requires two result sets to be bit-identical, including
// the SimP and Distance of every pair.
func assertSamePairs(t testing.TB, ctxt string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", ctxt, len(got), len(want))
	}
	for i := range got {
		if got[i].Q != want[i].Q || got[i].G != want[i].G {
			t.Fatalf("%s pair %d: (%d,%d) vs (%d,%d)", ctxt, i, got[i].Q, got[i].G, want[i].Q, want[i].G)
		}
		if got[i].SimP != want[i].SimP {
			t.Fatalf("%s pair %d: SimP %v != %v", ctxt, i, got[i].SimP, want[i].SimP)
		}
		if got[i].Distance != want[i].Distance {
			t.Fatalf("%s pair %d: distance %d != %d", ctxt, i, got[i].Distance, want[i].Distance)
		}
	}
}

// bruteCandidates is the reference for Index.Candidates: every query, in
// index order, inside the ±τ size window of g that passes the exact label
// screen.
func bruteCandidates(qsigs []*filter.QSig, d []*graph.Graph, g *ugraph.Graph, tau int) []int {
	var set graph.LabelSet
	wilds := filter.UnionConcreteLabels(g, &set)
	var out []int
	for qi, q := range d {
		if diff := q.Size() - g.Size(); diff > tau || -diff > tau {
			continue
		}
		if filter.LabelOverlapScreen(qsigs[qi], &set, wilds, g.NumVertices(), tau) {
			out = append(out, qi)
		}
	}
	return out
}

// checkJoinOracle is the differential oracle every candidate feed answers to.
// It draws a workload from seed and runs every combination of
//
//	feed      JoinWith(NewCrossSource), Join, JoinIndexed,
//	          JoinWith(NewStreamSource)
//	chain     each Mode's default chain, and a shuffled explicit FilterChain
//	workers   1 and 4
//
// checking each run against naiveJoin (Def. 7 by brute force) and the Stats
// partition identities, and every run of one chain against the first run of
// that chain, pair for pair. The cross-product feeds show every pair to the
// chain (IndexSkipped 0); Join and JoinIndexed skip exactly the pairs the
// prescreens rule out. Per chain, JoinTopK with k = |D| must return the same
// answer set, grouped by uncertain graph and ranked by pairBetter. It also
// checks Index.Candidates against bruteCandidates for every uncertain graph,
// and returns how many pairs the prescreens ruled out.
func checkJoinOracle(t *testing.T, seed int64, nd, nu, tau int, alpha float64) (prescreened int64) {
	t.Helper()
	var d []*graph.Graph
	var u []*ugraph.Graph
	switch seed % 3 {
	case 0:
		d, u = smallWorkload(seed, nd, nu)
	case 1:
		d, u = subNormalWorkload(seed, nd, nu)
	default:
		d, u = wildcardHeavyWorkload(seed, nd, nu, 0.5)
	}
	want := naiveJoin(d, u, tau, alpha)

	idx := BuildIndex(d)
	for gi, g := range u {
		got, ref := idx.Candidates(g, tau), bruteCandidates(idx.qsigs, d, g, tau)
		if !slices.Equal(got, ref) {
			t.Fatalf("seed=%d tau=%d g=%d: index candidates %v, brute force %v", seed, tau, gi, got, ref)
		}
		prescreened += int64(len(d) - len(got))
	}

	rng := rand.New(rand.NewSource(seed))
	shuffled := filter.BoundNames()
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	shuffled = shuffled[:2+rng.Intn(len(shuffled)-1)]
	chains := []struct {
		name  string
		mode  Mode
		chain []filter.Bound
	}{
		{"css", ModeCSSOnly, nil},
		{"simj", ModeSimJ, nil},
		{"opt", ModeSimJOpt, nil},
		{fmt.Sprint(shuffled), ModeSimJ, defaultChain(shuffled...)},
	}
	res := NewResident(u)
	feeds := []struct {
		name    string
		skipped int64
		run     func(Options) ([]Pair, Stats, error)
	}{
		{"cross", 0, func(o Options) ([]Pair, Stats, error) {
			return JoinWith(context.Background(), NewCrossSource(d, u), o)
		}},
		{"join", prescreened, func(o Options) ([]Pair, Stats, error) { return Join(d, u, o) }},
		{"indexed", prescreened, func(o Options) ([]Pair, Stats, error) { return JoinIndexed(idx, u, o) }},
		{"stream", 0, func(o Options) ([]Pair, Stats, error) {
			return JoinWith(context.Background(), NewStreamSource(res, d), o)
		}},
	}

	for _, ch := range chains {
		var first []Pair
		for _, feed := range feeds {
			for _, workers := range []int{1, 4} {
				opts := Options{Tau: tau, Alpha: alpha, Mode: ch.mode, GroupCount: 3,
					Workers: workers, FilterChain: ch.chain}
				name := fmt.Sprintf("seed=%d tau=%d alpha=%v chain=%s feed=%s workers=%d",
					seed, tau, alpha, ch.name, feed.name, workers)
				got, st, err := feed.run(opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkAnswerSet(t, name, got, want, alpha)
				checkStatsPartition(t, name, &st, int64(len(d)*len(u)), int64(len(got)), feed.skipped)
				if first == nil {
					first = got
				} else {
					assertSamePairs(t, name, got, first)
				}
			}
		}
		checkTopK(t, fmt.Sprintf("seed=%d tau=%d alpha=%v chain=%s topk", seed, tau, alpha, ch.name),
			d, u, Options{Tau: tau, Alpha: alpha, Mode: ch.mode, GroupCount: 3, Workers: 4, FilterChain: ch.chain},
			want, prescreened)
	}
	return prescreened
}

// checkTopK runs JoinTopK with k = |D|, so no qualifying pair is cut: every
// list must hold only its own uncertain graph's pairs in pairBetter order,
// and together the lists must be exactly the Def. 7 answer set.
func checkTopK(t *testing.T, name string, d []*graph.Graph, u []*ugraph.Graph, opts Options, want map[[2]int]float64, skipped int64) {
	t.Helper()
	top, st, err := JoinTopK(d, u, opts, len(d))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(top) != len(u) {
		t.Fatalf("%s: %d lists for %d uncertain graphs", name, len(top), len(u))
	}
	var all []Pair
	for gi, list := range top {
		for i, p := range list {
			if p.G != gi {
				t.Fatalf("%s: list %d holds pair (%d,%d)", name, gi, p.Q, p.G)
			}
			if i > 0 && pairBetter(p, list[i-1]) {
				t.Fatalf("%s: list %d out of pairBetter order at %d", name, gi, i)
			}
		}
		all = append(all, list...)
	}
	sortPairsQG(all)
	checkAnswerSet(t, name, all, want, opts.Alpha)
	checkStatsPartition(t, name, &st, int64(len(d)*len(u)), int64(len(all)), skipped)
}

// checkAnswerSet requires exactly the Def. 7 answer set, every pair decided
// exactly, with a SimP that is a lower bound on the exact value (early
// accept stops summing at α) and never below α.
func checkAnswerSet(t *testing.T, name string, got []Pair, want map[[2]int]float64, alpha float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, Def. 7 has %d", name, len(got), len(want))
	}
	for _, p := range got {
		exact, ok := want[[2]int{p.Q, p.G}]
		if !ok {
			t.Fatalf("%s: false pair (%d,%d)", name, p.Q, p.G)
		}
		if p.Verdict != VerdictExact || p.SimP > exact+1e-9 || p.SimP < alpha-1e-9 {
			t.Fatalf("%s: pair (%d,%d) verdict %v SimP %v, exact %v", name, p.Q, p.G, p.Verdict, p.SimP, exact)
		}
	}
}

// checkStatsPartition checks the identities every join's Stats must satisfy:
// pairs split into pruned and candidates, candidates into verdicts, prunes
// into per-bound attributions plus prescreen skips, and the attribution is
// the chain profile's prunes folded by bound name.
func checkStatsPartition(t *testing.T, name string, st *Stats, pairs, results, skipped int64) {
	t.Helper()
	var attributed int64
	for _, n := range st.PrunedBy {
		attributed += n
	}
	profiled := map[string]int64{}
	for _, bc := range ProfileByBound(st.BoundProfile) {
		if bc.Prunes != 0 {
			profiled[bc.Bound] = bc.Prunes
		}
	}
	switch {
	case st.Pairs != pairs:
		t.Fatalf("%s: Pairs %d, want %d", name, st.Pairs, pairs)
	case st.CSSPruned+st.ProbPruned+st.Candidates != st.Pairs:
		t.Fatalf("%s: pruned %d+%d + candidates %d != pairs %d", name, st.CSSPruned, st.ProbPruned, st.Candidates, st.Pairs)
	case st.ExactPairs+st.SampledPairs+st.ApproxPairs+st.SkippedPairs != st.Candidates:
		t.Fatalf("%s: verdicts %d+%d+%d+%d != candidates %d", name,
			st.ExactPairs, st.SampledPairs, st.ApproxPairs, st.SkippedPairs, st.Candidates)
	case st.Results != results:
		t.Fatalf("%s: Results %d, returned %d", name, st.Results, results)
	case st.IndexSkipped != skipped:
		t.Fatalf("%s: IndexSkipped %d, want %d", name, st.IndexSkipped, skipped)
	case attributed+st.IndexSkipped != st.CSSPruned+st.ProbPruned:
		t.Fatalf("%s: PrunedBy %d + skipped %d != pruned %d", name, attributed, st.IndexSkipped, st.CSSPruned+st.ProbPruned)
	case !maps.Equal(profiled, st.PrunedBy):
		t.Fatalf("%s: PrunedBy %v, profile prunes by bound %v", name, st.PrunedBy, profiled)
	case st.QuarantinedPairs != 0 || st.Cancelled:
		t.Fatalf("%s: quarantined %d cancelled %v", name, st.QuarantinedPairs, st.Cancelled)
	}
}

// TestJoinOracle runs the differential oracle over a spread of random
// workloads and thresholds.
func TestJoinOracle(t *testing.T) {
	// seed%3 picks the workload kind and seed/3 the threshold, so the nine
	// seeds cover every kind × τ combination with α varying alongside.
	prescreened := make([]int64, 3)
	for seed := int64(0); seed < 9; seed++ {
		tau := int(seed / 3)
		alpha := []float64{0.3, 0.6, 0.9}[(seed+seed/3)%3]
		prescreened[tau] += checkJoinOracle(t, seed, 8, 7, tau, alpha)
	}
	// At τ ≤ 1 the prescreens must rule pairs out, or Join's index feed is
	// indistinguishable from the cross product here.
	if prescreened[0] == 0 || prescreened[1] == 0 {
		t.Fatalf("prescreens ruled out %v pairs per τ", prescreened)
	}
}

// FuzzJoinOracle drives the same oracle from fuzzed workload shapes and
// thresholds (make fuzz), with α over [0.01, 1.00]. The last seed, and the
// testdata corpus, are α = 1 cases whose pairs have SimP exactly 1: comparing
// a floating-point mass sum against α without filter.MassSlack drops some of
// them (5 of 44 for the seed, in SimJ+opt's early reject).
func FuzzJoinOracle(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(5), uint8(1), uint8(50))
	f.Add(int64(2), uint8(4), uint8(8), uint8(0), uint8(90))
	f.Add(int64(3), uint8(8), uint8(3), uint8(2), uint8(20))
	f.Add(int64(-28), uint8(5), uint8(7), uint8(3), uint8(99))
	f.Fuzz(func(t *testing.T, seed int64, nd, nu, tau, alphaPct uint8) {
		alpha := float64(alphaPct%100+1) / 100
		checkJoinOracle(t, seed, int(nd%8)+1, int(nu%8)+1, int(tau%4), alpha)
	})
}

// TestJoinBlockEquivalenceProperty drives random workloads — including
// sub-normalised ones — through both candidate feeds, the cross product
// (JoinWith(NewCrossSource)) and the index's block sweep (JoinIndexed, the
// feed behind Join: each size run screened as one block by the word-parallel
// overlap bound, then the exact label screen), across modes and query-set
// sizes of 1, 7 and 64 so the size runs range from single queries to wide
// blocks. Results must be bit-identical, pairs must partition exactly, and
// the prescreen may only remove candidates.
func TestJoinBlockEquivalenceProperty(t *testing.T) {
	modes := []Mode{ModeCSSOnly, ModeSimJ, ModeSimJOpt}
	sizes := []int{1, 7, 64}
	for seed := int64(200); seed < 205; seed++ {
		for mi, mode := range modes {
			nd := sizes[(int(seed)+mi)%len(sizes)]
			d, u := smallWorkload(seed, nd, 9)
			if seed%2 == 0 {
				d, u = subNormalWorkload(seed, nd, 9)
			}
			opts := Options{
				Tau:        1 + int(seed%2),
				Alpha:      0.4,
				Mode:       mode,
				GroupCount: 4,
				Workers:    3,
			}
			want, ws, err := JoinWith(context.Background(), NewCrossSource(d, u), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, is, err := JoinIndexed(BuildIndex(d), u, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctxt := fmt.Sprintf("seed=%d mode=%v nd=%d", seed, mode, nd)
			assertSamePairs(t, ctxt, got, want)
			for name, st := range map[string]*Stats{"cross": &ws, "indexed": &is} {
				if st.Pairs != int64(len(d)*len(u)) || st.Results != int64(len(want)) {
					t.Fatalf("%s %s: pairs/results %d/%d, want %d/%d",
						ctxt, name, st.Pairs, st.Results, len(d)*len(u), len(want))
				}
				if st.CSSPruned+st.ProbPruned+st.Candidates != st.Pairs {
					t.Fatalf("%s %s: accounting %+v", ctxt, name, st)
				}
			}
			if ws.IndexSkipped != 0 {
				t.Fatalf("%s: cross product recorded IndexSkipped = %d", ctxt, ws.IndexSkipped)
			}
			if is.Candidates > ws.Candidates {
				t.Fatalf("%s: indexed candidates %d > cross product %d", ctxt, is.Candidates, ws.Candidates)
			}
		}
	}
}

// normPartStats strips the wall-clock fields, which legitimately differ
// between runs, leaving every pair-partition counter, the PrunedBy map and
// the de-timed bound profile for exact comparison.
func normPartStats(s Stats) Stats {
	s.PruneTime, s.VerifyTime = 0, 0
	if s.BoundProfile != nil {
		prof := slices.Clone(s.BoundProfile)
		for i := range prof {
			prof[i].Nanos = 0
		}
		s.BoundProfile = prof
	}
	if len(s.PrunedBy) == 0 {
		s.PrunedBy = nil
	}
	if len(s.Quarantined) == 0 {
		s.Quarantined = nil
	}
	return s
}

// TestShardedJoinEquivalenceProperty splits the uncertain side into 1, 2 and
// 8 shards, joins every shard against one shared Index, and requires the
// shard results, re-based to global indices, to be bit-identical to the
// unsharded JoinIndexed run, and the shards' Stats to fold (Stats.Merge) to
// the unsharded Stats counter for counter (timing excluded).
func TestShardedJoinEquivalenceProperty(t *testing.T) {
	for seed := int64(300); seed < 303; seed++ {
		d, u := smallWorkload(seed, 14, 12)
		if seed%2 == 0 {
			d, u = subNormalWorkload(seed, 14, 12)
		}
		idx := BuildIndex(d)
		opts := Options{
			Tau:        1 + int(seed%2),
			Alpha:      0.4,
			Mode:       ModeSimJOpt,
			GroupCount: 4,
			Workers:    3,
		}
		want, ws, err := JoinIndexed(idx, u, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 8} {
			ctxt := fmt.Sprintf("seed=%d shards=%d", seed, shards)
			var got []Pair
			var merged Stats
			for s := 0; s < shards; s++ {
				lo, hi := s*len(u)/shards, (s+1)*len(u)/shards
				part, st, err := JoinIndexed(idx, u[lo:hi], opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range part {
					p.G += lo
					got = append(got, p)
				}
				merged.Merge(&st)
			}
			sortPairsQG(got)
			assertSamePairs(t, ctxt, got, want)
			if gotN, wantN := normPartStats(merged), normPartStats(ws); !reflect.DeepEqual(gotN, wantN) {
				t.Fatalf("%s: merged stats diverged\n got %+v\nwant %+v", ctxt, gotN, wantN)
			}
		}
	}
}

func TestJoinMatchesOracleAllModes(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		d, u := smallWorkload(seed, 6, 6)
		for _, tau := range []int{0, 1, 2} {
			for _, alpha := range []float64{0.3, 0.7, 0.95} {
				want := naiveJoin(d, u, tau, alpha)
				for _, mode := range []Mode{ModeCSSOnly, ModeSimJ, ModeSimJOpt} {
					opts := Options{Tau: tau, Alpha: alpha, Mode: mode, GroupCount: 4, Workers: 2}
					got, _, err := Join(d, u, opts)
					if err != nil {
						t.Fatalf("Join(%v): %v", mode, err)
					}
					if len(got) != len(want) {
						t.Fatalf("seed=%d tau=%d alpha=%v mode=%v: got %d pairs, want %d",
							seed, tau, alpha, mode, len(got), len(want))
					}
					for _, p := range got {
						wp, ok := want[[2]int{p.Q, p.G}]
						if !ok {
							t.Fatalf("mode %v returned false pair (%d,%d)", mode, p.Q, p.G)
						}
						// Early-accepted pairs report a partial (lower-bound)
						// SimP; it must never exceed the exact value.
						if p.SimP > wp+1e-9 {
							t.Fatalf("pair (%d,%d) SimP %v exceeds exact %v", p.Q, p.G, p.SimP, wp)
						}
						if p.SimP < alpha-1e-9 {
							t.Fatalf("pair (%d,%d) reported SimP %v < alpha %v", p.Q, p.G, p.SimP, alpha)
						}
					}
				}
			}
		}
	}
}

func TestTightProbBoundMatchesOracle(t *testing.T) {
	d, u := smallWorkload(23, 8, 8)
	for _, tau := range []int{0, 1, 2} {
		for _, alpha := range []float64{0.4, 0.8} {
			want := naiveJoin(d, u, tau, alpha)
			got, st, err := Join(d, u, Options{Tau: tau, Alpha: alpha, Mode: ModeSimJ, Workers: 2,
				FilterChain: defaultChain("css", "prob-tight")})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("tau=%d alpha=%v: %d pairs, want %d", tau, alpha, len(got), len(want))
			}
			// The tighter bound can only prune more.
			loose, st2, err := Join(d, u, Options{Tau: tau, Alpha: alpha, Mode: ModeSimJ, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(loose) != len(want) {
				t.Fatalf("loose bound changed results")
			}
			if st.Candidates > st2.Candidates {
				t.Errorf("tight bound kept more candidates (%d > %d)", st.Candidates, st2.Candidates)
			}
		}
	}
}

func TestJoinEarlyExitOffMatchesExact(t *testing.T) {
	d, u := smallWorkload(7, 5, 5)
	opts := Options{Tau: 1, Alpha: 0.5, Mode: ModeSimJ, Workers: 1, DisableEarlyExit: true}
	got, _, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveJoin(d, u, 1, 0.5)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for _, p := range got {
		if math.Abs(p.SimP-want[[2]int{p.Q, p.G}]) > 1e-9 {
			t.Errorf("pair (%d,%d): SimP %v != exact %v", p.Q, p.G, p.SimP, want[[2]int{p.Q, p.G}])
		}
	}
}

func TestModesPruneProgressively(t *testing.T) {
	d, u := smallWorkload(13, 10, 10)
	var prev int64 = 1 << 62
	for _, mode := range []Mode{ModeCSSOnly, ModeSimJ, ModeSimJOpt} {
		_, st, err := Join(d, u, Options{Tau: 1, Alpha: 0.9, Mode: mode, GroupCount: 6, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if st.Candidates > prev {
			t.Errorf("mode %v has %d candidates, more than previous mode's %d", mode, st.Candidates, prev)
		}
		if st.Candidates < st.Results {
			t.Errorf("mode %v: results %d exceed candidates %d", mode, st.Results, st.Candidates)
		}
		prev = st.Candidates
	}
}

func TestStatsAccounting(t *testing.T) {
	d, u := smallWorkload(19, 8, 7)
	_, st, err := Join(d, u, Options{Tau: 1, Alpha: 0.9, Mode: ModeSimJ, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Pairs != int64(len(d)*len(u)) {
		t.Errorf("Pairs = %d, want %d", st.Pairs, len(d)*len(u))
	}
	if st.CSSPruned+st.ProbPruned+st.Candidates != st.Pairs {
		t.Errorf("pruned(%d+%d)+candidates(%d) != pairs(%d)",
			st.CSSPruned, st.ProbPruned, st.Candidates, st.Pairs)
	}
	if r := st.CandidateRatio(); r < 0 || r > 1 {
		t.Errorf("CandidateRatio = %v", r)
	}
	if st.ResultRatio() > st.CandidateRatio() {
		t.Error("ResultRatio exceeds CandidateRatio")
	}
}

func TestMappingReturned(t *testing.T) {
	// Identical graphs must join at tau=0 with a usable mapping.
	q := graph.New(3)
	q.AddVertex("?x")
	q.AddVertex("Artist")
	q.AddVertex("University")
	q.MustAddEdge(0, 1, "type")
	q.MustAddEdge(0, 2, "graduatedFrom")
	g := ugraph.FromCertain(q)
	pairs, _, err := Join([]*graph.Graph{q}, []*ugraph.Graph{g},
		Options{Tau: 0, Alpha: 0.9, Mode: ModeSimJ, KeepMappings: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("got %d pairs, want 1", len(pairs))
	}
	p := pairs[0]
	if p.Distance != 0 || p.World == nil || p.Mapping == nil {
		t.Fatalf("pair = %+v; want distance 0 with world and mapping", p)
	}
	if c, err := ged.MappingCost(q, p.World, p.Mapping); err != nil || c != 0 {
		t.Fatalf("mapping cost = %d, %v; want 0", c, err)
	}
}

func TestPaperRunningExample(t *testing.T) {
	// q1/g2 of Fig. 3/4: "Which politician graduated from CIT?" should match
	// the Artist/Harvard SPARQL under a permissive tau, and the politician
	// question must NOT match the actor question's complex query at tau=1.
	q1 := graph.New(4)
	x := q1.AddVertex("?x")
	ar := q1.AddVertex("Artist")
	hu := q1.AddVertex("Harvard_University")
	un := q1.AddVertex("University")
	q1.MustAddEdge(x, ar, "type")
	q1.MustAddEdge(x, hu, "graduatedFrom")
	q1.MustAddEdge(hu, un, "type")

	g2 := ugraph.New(3)
	gx := g2.AddVertex(ugraph.Label{Name: "?x", P: 1})
	gp := g2.AddVertex(ugraph.Label{Name: "Politician", P: 1})
	gc := g2.AddVertex(ugraph.Label{Name: "University", P: 0.8}, ugraph.Label{Name: "Company", P: 0.2})
	g2.MustAddEdge(gx, gp, "type")
	g2.MustAddEdge(gx, gc, "graduatedFrom")

	// Distance from q1 to the University world: Politician->Artist sub (1),
	// University->Harvard_University sub (1), insert University + type edge
	// (2) = 4 at most; check it joins at tau=4, alpha=0.8.
	pairs, _, err := Join([]*graph.Graph{q1}, []*ugraph.Graph{g2},
		Options{Tau: 4, Alpha: 0.8, Mode: ModeSimJOpt, GroupCount: 2, Workers: 1, KeepMappings: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("expected the politician/artist pair to join at tau=4, got %d pairs", len(pairs))
	}
	if pairs[0].Distance > 4 {
		t.Errorf("distance = %d, want <= 4", pairs[0].Distance)
	}

	// At tau=1 the pair must be rejected (too many edits needed).
	pairs, _, err = Join([]*graph.Graph{q1}, []*ugraph.Graph{g2},
		Options{Tau: 1, Alpha: 0.5, Mode: ModeSimJ, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Errorf("pair should not join at tau=1, got %d", len(pairs))
	}
}

func TestOptionValidation(t *testing.T) {
	d, u := smallWorkload(1, 1, 1)
	if _, _, err := Join(d, u, Options{Tau: -1, Alpha: 0.5}); err == nil {
		t.Error("negative tau accepted")
	}
	if _, _, err := Join(d, u, Options{Tau: 1, Alpha: 0}); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, _, err := Join(d, u, Options{Tau: 1, Alpha: 1.2}); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

func TestMaxWorldsSkips(t *testing.T) {
	// An uncertain graph with 3^6 worlds against a 1-world budget.
	g := ugraph.New(6)
	for i := 0; i < 6; i++ {
		g.AddVertex(
			ugraph.Label{Name: "A", P: 0.4},
			ugraph.Label{Name: "B", P: 0.3},
			ugraph.Label{Name: "C", P: 0.3},
		)
	}
	q := graph.New(1)
	q.AddVertex("A")
	base := Options{Tau: 10, Alpha: 0.01, Mode: ModeCSSOnly, Workers: 1, MaxWorlds: 1, DisableEarlyExit: true}

	t.Run("legacy cliff", func(t *testing.T) {
		// FallbackNone restores the pre-ladder behaviour: over budget → skip.
		opts := base
		opts.Fallback = FallbackNone
		_, st, err := Join([]*graph.Graph{q}, []*ugraph.Graph{g}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.SkippedPairs != 1 {
			t.Errorf("SkippedPairs = %d, want 1", st.SkippedPairs)
		}
	})
	t.Run("ladder decides", func(t *testing.T) {
		// Every world is within tau=10 of the single-vertex query, so the
		// default sampling fallback must accept instead of skipping.
		pairs, st, err := Join([]*graph.Graph{q}, []*ugraph.Graph{g}, base)
		if err != nil {
			t.Fatal(err)
		}
		if st.SkippedPairs != 0 || st.BudgetFallbacks != 1 || st.SampledPairs != 1 {
			t.Errorf("ladder stats: %+v", st)
		}
		if len(pairs) != 1 || pairs[0].Verdict != VerdictSampled || pairs[0].CI <= 0 {
			t.Errorf("pairs = %+v, want one VerdictSampled result with CI", pairs)
		}
	})
}

func TestEmptyInputs(t *testing.T) {
	pairs, st, err := Join(nil, nil, Options{Tau: 1, Alpha: 0.5})
	if err != nil || len(pairs) != 0 || st.Pairs != 0 {
		t.Fatalf("empty join: pairs=%d stats=%+v err=%v", len(pairs), st, err)
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	d, u := smallWorkload(29, 8, 8)
	var ref []Pair
	for _, workers := range []int{1, 2, 8} {
		got, _, err := Join(d, u, Options{Tau: 1, Alpha: 0.6, Mode: ModeSimJOpt, GroupCount: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d pairs, want %d", workers, len(got), len(ref))
		}
		for i := range got {
			if got[i].Q != ref[i].Q || got[i].G != ref[i].G {
				t.Fatalf("workers=%d: pair order differs at %d", workers, i)
			}
		}
	}
}

// TestStatsMergeOrderIndependent pins the contract on the exported
// Stats.Merge: folding several joins' Stats in any order — including stats
// with quarantine records, PrunedBy maps and bound profiles — yields the same
// aggregate, with a deterministic representation (sorted quarantine log,
// position-sorted profile).
func TestStatsMergeOrderIndependent(t *testing.T) {
	var per []Stats
	for seed := int64(19); seed < 23; seed++ {
		d, u := smallWorkload(seed, 6, 5)
		opts := DefaultOptions()
		opts.Alpha = 0.5
		opts.Workers = 2
		opts.Mode = Mode(seed % 3)
		_, st, err := Join(d, u, opts)
		if err != nil {
			t.Fatal(err)
		}
		per = append(per, st)
	}
	// Synthetic extras exercise the fields a clean join leaves empty.
	per = append(per,
		Stats{Pairs: 3, QuarantinedPairs: 2, PrunedBy: map[string]int64{"css": 2},
			Quarantined: []QuarantineRecord{{Q: 9, G: 1}, {Q: 2, G: 5}}},
		Stats{Pairs: 1, QuarantinedPairs: 1, PrunedBy: map[string]int64{"prob": 1},
			Quarantined: []QuarantineRecord{{Q: 2, G: 4}}, Cancelled: true},
	)
	var want Stats
	for i := range per {
		want.Merge(&per[i])
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(len(per))
		var got Stats
		for _, i := range perm {
			got.Merge(&per[i])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fold order %v diverged:\n got %+v\nwant %+v", perm, got, want)
		}
	}
	for i := 1; i < len(want.Quarantined); i++ {
		a, b := want.Quarantined[i-1], want.Quarantined[i]
		if a.Q > b.Q || (a.Q == b.Q && a.G > b.G) {
			t.Fatalf("merged quarantine log not sorted: %+v", want.Quarantined)
		}
	}
	if !want.Cancelled {
		t.Fatal("Cancelled flag lost in merge")
	}
}

func TestModeString(t *testing.T) {
	if ModeCSSOnly.String() != "CSS only" || ModeSimJ.String() != "SimJ" || ModeSimJOpt.String() != "SimJ+opt" {
		t.Error("Mode.String mismatch")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should still render")
	}
}
