package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"simjoin/internal/plan"
)

// fastAdaptive returns a planner config whose epochs are short enough for the
// small test workloads to warm up, reorder, and re-check several times.
func fastAdaptive() *plan.Config {
	return &plan.Config{
		Chain:       true,
		WarmupPairs: 8,
		EpochPairs:  16,
		SampleEvery: 4,
		Report:      &plan.Report{},
	}
}

// invariantStats projects the Stats fields that must be bit-identical between
// a static and an adaptive run of the same join: everything the adaptive
// reorder is not allowed to move. (PrunedBy attribution, the
// CSSPruned/ProbPruned split, BoundProfile and the group tallies legitimately
// shift with the walk order; their sums are asserted separately.)
func invariantStats(st *Stats) map[string]int64 {
	return map[string]int64{
		"pairs":         st.Pairs,
		"candidates":    st.Candidates,
		"results":       st.Results,
		"skipped":       st.SkippedPairs,
		"exact":         st.ExactPairs,
		"sampled":       st.SampledPairs,
		"approx":        st.ApproxPairs,
		"worlds":        st.WorldsChecked,
		"ged-calls":     st.GEDCalls,
		"early-accepts": st.EarlyAccepts,
		"early-rejects": st.EarlyRejects,
		"index-skipped": st.IndexSkipped,
		"pruned":        st.CSSPruned + st.ProbPruned,
	}
}

// TestAdaptiveChainMatchesStatic pins the adaptive chain's counter
// identity: across modes and both candidate feeds, the adaptive run must
// return byte-identical results and identical invariant counters to the
// static chain, with the prune partition intact. Run under -race
// -shuffle=on this also exercises the controller's concurrent hot path.
func TestAdaptiveChainMatchesStatic(t *testing.T) {
	d, u := smallWorkload(42, 24, 24)
	idx := BuildIndex(d)
	feeds := map[string]func(Options) ([]Pair, Stats, error){
		"cross":   func(o Options) ([]Pair, Stats, error) { return Join(d, u, o) },
		"indexed": func(o Options) ([]Pair, Stats, error) { return JoinIndexedContext(context.Background(), idx, u, o) },
	}
	for _, mode := range []Mode{ModeCSSOnly, ModeSimJ, ModeSimJOpt} {
		for feed, run := range feeds {
			opts := Options{Tau: 2, Alpha: 0.5, Mode: mode, GroupCount: 4, Workers: 4}
			want, wantSt, err := run(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Planner = fastAdaptive()
			got, gotSt, err := run(opts)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("mode=%v feed=%s", mode, feed)
			assertSamePairs(t, name, got, want)
			wi, gi := invariantStats(&wantSt), invariantStats(&gotSt)
			if !reflect.DeepEqual(gi, wi) {
				t.Fatalf("%s: invariant stats differ:\nstatic   %v\nadaptive %v", name, wi, gi)
			}
			// The partition identities must hold on the adaptive run too.
			if gotSt.CSSPruned+gotSt.ProbPruned+gotSt.Candidates != gotSt.Pairs {
				t.Fatalf("%s: prune partition broken: %d+%d+%d != %d", name,
					gotSt.CSSPruned, gotSt.ProbPruned, gotSt.Candidates, gotSt.Pairs)
			}
			// ModeCSSOnly's single-bound chain has nothing to reorder;
			// every multi-bound chain must have run epochs.
			if mode != ModeCSSOnly && gotSt.PlanEpochs == 0 {
				t.Fatalf("%s: adaptive run recorded no epochs", name)
			}
		}
	}
}

// TestAdaptiveChainHoistsSelectiveBound pins that the optimizer actually
// reorders when the static order is adversarial: a chain fronted by bounds
// that prune nothing must adopt an order with the selective css bound first.
func TestAdaptiveChainHoistsSelectiveBound(t *testing.T) {
	d, u := smallWorkload(7, 24, 24)
	cfg := fastAdaptive()
	opts := Options{Tau: 0, Alpha: 0.9, Mode: ModeSimJ, Workers: 2,
		FilterChain: defaultChain("count", "lm", "css", "prob"), Planner: cfg}
	_, st, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanReorders == 0 {
		t.Fatalf("adversarial static order survived: %+v", st)
	}
	orders, reorders, epochs := cfg.Report.Chain()
	if len(orders) == 0 || reorders != st.PlanReorders || epochs != st.PlanEpochs {
		t.Fatalf("report disagrees with stats: orders=%v reorders=%d/%d epochs=%d/%d",
			orders, reorders, st.PlanReorders, epochs, st.PlanEpochs)
	}
	// At least one adopted order must differ from the static chain (the
	// reorder counter already proves an adoption happened; this pins that the
	// report carries the adopted order, not the static one).
	static := "count,lm,css,prob"
	changed := false
	for _, o := range orders {
		if o != static {
			changed = true
		}
	}
	if !changed {
		t.Fatalf("reorders=%d but every reported order is still the static %q", reorders, static)
	}
	var buf bytes.Buffer
	WritePlanReport(&buf, cfg, &st)
	if out := buf.String(); !strings.Contains(out, "adaptive chain: epochs=") || !strings.Contains(out, "order: ") {
		t.Fatalf("WritePlanReport output missing the adopted order:\n%s", out)
	}
}

// TestStatsMergeFoldsCrossOrderProfiles asserts Stats.Merge and
// ProfileByBound keep eval/prune totals exact when the merged joins profiled
// the same bounds at *different* chain positions — the shape merged Stats
// take when joins run differently-ordered explicit chains.
func TestStatsMergeFoldsCrossOrderProfiles(t *testing.T) {
	a := Stats{BoundProfile: []BoundCost{
		{Pos: 0, Bound: "css", Evals: 100, Prunes: 90, Nanos: 1000},
		{Pos: 1, Bound: "prob", Evals: 10, Prunes: 4, Nanos: 500},
	}}
	b := Stats{BoundProfile: []BoundCost{
		{Pos: 0, Bound: "prob", Evals: 80, Prunes: 20, Nanos: 4000},
		{Pos: 1, Bound: "css", Evals: 60, Prunes: 50, Nanos: 600},
	}}
	var m Stats
	m.Merge(&a)
	m.Merge(&b)
	// Positional entries stay distinct (4 keys), name-folding collapses to 2.
	if len(m.BoundProfile) != 4 {
		t.Fatalf("merged profile has %d entries, want 4: %+v", len(m.BoundProfile), m.BoundProfile)
	}
	folded := ProfileByBound(m.BoundProfile)
	if len(folded) != 2 {
		t.Fatalf("folded profile has %d entries, want 2: %+v", len(folded), folded)
	}
	wantTotals := map[string][3]int64{
		"css":  {160, 140, 1600},
		"prob": {90, 24, 4500},
	}
	for _, bc := range folded {
		w := wantTotals[bc.Bound]
		if bc.Evals != w[0] || bc.Prunes != w[1] || bc.Nanos != w[2] {
			t.Fatalf("folded %s = {evals %d, prunes %d, nanos %d}, want %v", bc.Bound, bc.Evals, bc.Prunes, bc.Nanos, w)
		}
		if bc.Pos != 0 {
			t.Fatalf("folded %s keeps pos %d, want smallest (0)", bc.Bound, bc.Pos)
		}
	}
	// Selectivity of the fold is the exact pooled rate, not an average of rates.
	for _, bc := range folded {
		w := wantTotals[bc.Bound]
		if got, want := bc.Selectivity(), float64(w[1])/float64(w[0]); got != want {
			t.Fatalf("folded %s selectivity %v, want %v", bc.Bound, got, want)
		}
	}
}

// TestEffectiveCostOrderDeterministic (satellite: rank tie-breaking) pins the
// deterministic tie-break: equal effective costs rank by chain position, then
// bound name, and EffectiveCostOrder never repeats a name.
func TestEffectiveCostOrderDeterministic(t *testing.T) {
	prof := []BoundCost{ // all never prune: every effective cost is +Inf
		{Pos: 2, Bound: "c", Evals: 10},
		{Pos: 0, Bound: "a", Evals: 10},
		{Pos: 1, Bound: "b", Evals: 10},
	}
	if got := EffectiveCostOrder(prof); got != "a,b,c" {
		t.Fatalf("EffectiveCostOrder = %q, want position-ordered %q", got, "a,b,c")
	}
	ranks := effectiveCostRanks(prof)
	if !reflect.DeepEqual(ranks, []int{3, 1, 2}) {
		t.Fatalf("ranks = %v, want [3 1 2]", ranks)
	}
	// Same position (a name-folded profile), still deterministic: name order.
	tied := []BoundCost{
		{Pos: 0, Bound: "y", Evals: 10},
		{Pos: 0, Bound: "x", Evals: 10},
	}
	if got := EffectiveCostOrder(tied); got != "x,y" {
		t.Fatalf("EffectiveCostOrder = %q, want name-ordered %q", got, "x,y")
	}
	// Duplicate names collapse to the cheapest rank.
	dup := []BoundCost{
		{Pos: 0, Bound: "css", Evals: 100, Prunes: 1, Nanos: 100},
		{Pos: 1, Bound: "css", Evals: 10, Prunes: 9, Nanos: 10},
		{Pos: 2, Bound: "prob", Evals: 10, Prunes: 5, Nanos: 10},
	}
	if got := EffectiveCostOrder(dup); got != "css,prob" {
		t.Fatalf("EffectiveCostOrder = %q, want deduped %q", got, "css,prob")
	}
}
