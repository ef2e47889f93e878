package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"simjoin/internal/fault"
	"simjoin/internal/filter"
	"simjoin/internal/obs"
)

// chainOf resolves a list of registered bound names, failing the test on
// unknown names so chain tests stay in sync with the registry.
func chainOf(t *testing.T, names ...string) []filter.Bound {
	t.Helper()
	chain := make([]filter.Bound, len(names))
	for i, n := range names {
		b, ok := filter.BoundByName(n)
		if !ok {
			t.Fatalf("bound %q not registered", n)
		}
		chain[i] = b
	}
	return chain
}

// TestFilterChainReorderMatchesOracle runs the join under several explicit
// chain orders — including chains that demote css, drop it entirely, or
// front-load the cheap certain-graph baselines — and checks every order
// returns exactly the oracle's pairs. Bounds only prune provably-unqualified
// pairs, so reordering (or removing) them must never change the result set.
func TestFilterChainReorderMatchesOracle(t *testing.T) {
	chains := [][]string{
		{"css", "prob"},
		{"prob", "css"},
		{"prob-tight", "css"},
		{"count", "lm", "css", "prob"},
		{"segos", "pars", "path-gram", "cstar", "css", "group"},
		{"group"},
		{"lm", "count", "cstar", "path-gram", "pars", "segos", "css", "prob", "prob-tight", "group"},
	}
	for seed := int64(3); seed <= 5; seed++ {
		d, u := smallWorkload(seed, 6, 6)
		for _, tau := range []int{0, 1, 2} {
			want := naiveJoin(d, u, tau, 0.6)
			for _, names := range chains {
				opts := Options{Tau: tau, Alpha: 0.6, GroupCount: 4, Workers: 2,
					FilterChain: chainOf(t, names...)}
				got, st, err := Join(d, u, opts)
				if err != nil {
					t.Fatalf("chain %v: %v", names, err)
				}
				if len(got) != len(want) {
					t.Fatalf("seed=%d tau=%d chain %v: got %d pairs, want %d",
						seed, tau, names, len(got), len(want))
				}
				for _, p := range got {
					if _, ok := want[[2]int{p.Q, p.G}]; !ok {
						t.Fatalf("chain %v returned false pair (%d,%d)", names, p.Q, p.G)
					}
				}
				if st.CSSPruned+st.ProbPruned+st.Candidates != st.Pairs {
					t.Fatalf("chain %v: pruned(%d+%d)+candidates(%d) != pairs(%d)",
						names, st.CSSPruned, st.ProbPruned, st.Candidates, st.Pairs)
				}
			}
		}
	}
}

// TestJoinWithSources exercises the exported engine entry point directly over
// both Source constructors, a prebuilt index with its prescreens off (every
// pair through the chain) and a stream feed against a Resident, and confirms
// each matches Join. The stream feed prescreens exactly as Join does, so its
// Stats match counter for counter; the every-pair run skips nothing, and
// with css leading the chain it admits the same candidates.
func TestJoinWithSources(t *testing.T) {
	d, u := smallWorkload(17, 8, 8)
	opts := Options{Tau: 1, Alpha: 0.6, Mode: ModeSimJ, Workers: 2}

	want, ws, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, gs, err := joinEveryPair(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || gs.Pairs != ws.Pairs || gs.Candidates != ws.Candidates || gs.IndexSkipped != 0 {
		t.Fatalf("every-pair JoinWith diverges from Join: %d/%d pairs, stats %+v vs %+v",
			len(got), len(want), gs, ws)
	}
	got, ss, err := JoinWith(context.Background(), NewStreamSource(NewResident(u), d), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePairs(t, "stream vs Join", got, want)
	if ss, ws := normPartStats(ss), normPartStats(ws); !reflect.DeepEqual(ss, ws) {
		t.Fatalf("stream JoinWith stats diverge from Join:\n got %+v\nwant %+v", ss, ws)
	}
}

// TestPrunedByAccounting checks the per-bound prune breakdown: it must sum to
// the aggregate prune counters (minus index prescreen skips, which bypass the
// chain), and the registry must hold the per-bound profile it is folded from.
func TestPrunedByAccounting(t *testing.T) {
	d, u := smallWorkload(41, 12, 12)
	for _, indexed := range []bool{false, true} {
		reg := obs.New()
		opts := Options{Tau: 1, Alpha: 0.9, GroupCount: 4, Workers: 2, Obs: reg,
			FilterChain: chainOf(t, "count", "css", "prob")}
		var (
			st  Stats
			err error
		)
		if indexed {
			_, st, err = Join(d, u, opts)
		} else {
			_, st, err = joinEveryPair(d, u, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		var byBound int64
		for _, n := range st.PrunedBy {
			byBound += n
		}
		if byBound != st.CSSPruned+st.ProbPruned-st.IndexSkipped {
			t.Errorf("indexed=%v: PrunedBy sums to %d, want css(%d)+prob(%d)-skipped(%d)",
				indexed, byBound, st.CSSPruned, st.ProbPruned, st.IndexSkipped)
		}
		checkPublished(t, fmt.Sprintf("indexed=%v", indexed), reg.Snapshot(), &st)
	}
}

// TestChainValidation covers Options.FilterChain edge cases.
func TestChainValidation(t *testing.T) {
	d, u := smallWorkload(1, 2, 2)
	opts := Options{Tau: 1, Alpha: 0.5, FilterChain: []filter.Bound{nil}}
	if _, _, err := Join(d, u, opts); err == nil {
		t.Error("nil bound in chain accepted")
	}
	// An explicit chain overrides the mode entirely.
	reg := obs.New()
	opts = Options{Tau: 1, Alpha: 0.5, Mode: ModeSimJOpt, GroupCount: 4, Workers: 1,
		Obs: reg, FilterChain: chainOf(t, "lm")}
	_, st, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	for bound := range st.PrunedBy {
		if bound != "lm" {
			t.Errorf("chain [lm] pruned via unexpected bound %q", bound)
		}
	}
}

// BenchmarkPairFaultKey measures the satellite-1 win: the per-pair fault
// lookup key as a packed integer versus the old fmt.Sprintf string. The
// string variant allocates on every pair; the packed one is alloc-free.
func BenchmarkPairFaultKey(b *testing.B) {
	// Arm an unrelated pair so the match path runs without firing.
	if err := fault.Enable("core.pair=error@1048575/1048575"); err != nil {
		b.Fatal(err)
	}
	defer fault.Reset()
	rng := rand.New(rand.NewSource(1))
	qis := make([]int, 1024)
	gis := make([]int, 1024)
	for i := range qis {
		qis[i] = rng.Intn(1 << 16)
		gis[i] = rng.Intn(1 << 16)
	}
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i & 1023
			if err := fault.Hit("core.pair", fmt.Sprintf("%d/%d", qis[j], gis[j])); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i & 1023
			if err := fault.HitPair("core.pair", fault.PairKey(qis[j], gis[j])); err != nil {
				b.Fatal(err)
			}
		}
	})
}
