package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"simjoin/internal/fault"
	"simjoin/internal/obs"
)

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
		opts := Options{Tau: 1, Alpha: 0.9, Mode: ModeSimJ, GroupCount: 4, Workers: 2, Obs: reg}
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

// TestChainValidation pins each Mode's one chain, the order Algorithms 1
// and 2 fix: the stages land in BoundProfile in chain order and under their
// names, every stage is booked even when it prunes nothing, and an unknown
// Mode runs structural pruning only. A stage's position decides whether its
// prunes count as CSSPruned (position 0, with the prescreen skips) or
// ProbPruned (position 1).
func TestChainValidation(t *testing.T) {
	d, u := smallWorkload(1, 4, 4)
	for _, c := range []struct {
		mode Mode
		want []string
	}{
		{ModeCSSOnly, []string{"css"}},
		{ModeSimJ, []string{"css", "prob"}},
		{ModeSimJOpt, []string{"css", "group"}},
		{Mode(99), []string{"css"}},
	} {
		_, st, err := Join(d, u, Options{Tau: 1, Alpha: 0.5, Mode: c.mode, GroupCount: 4, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for i, bc := range st.BoundProfile {
			if bc.Pos != i {
				t.Errorf("mode %v: profile entry %d at position %d", c.mode, i, bc.Pos)
			}
			got = append(got, bc.Bound)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("mode %v: chain %v, want %v", c.mode, got, c.want)
		}
		checkProfileIdentities(t, fmt.Sprintf("mode %v", c.mode), &st)
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
