package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"simjoin/internal/filter"
	"simjoin/internal/obs"
	"simjoin/internal/workload"
)

// invariantStats projects the Stats fields that must be bit-identical between
// two orders of the same chain: everything the order is not allowed to move.
// (PrunedBy attribution, the CSSPruned/ProbPruned split, BoundProfile and the
// group tallies legitimately shift with the walk order; only their sum,
// "pruned", is pinned.)
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

// TestAdaptiveChainMatchesStatic pins chain-order invariance: every bound is
// sound, so for each mode and both index feeds the mode's default chain run
// in reverse, as an explicit FilterChain, must return byte-identical pairs
// and identical invariant counters, with the prune partition intact. Run
// under -race -shuffle=on it also exercises the per-worker profile fold.
func TestAdaptiveChainMatchesStatic(t *testing.T) {
	d, u := smallWorkload(42, 24, 24)
	idx := BuildIndex(d)
	feeds := map[string]func(Options) ([]Pair, Stats, error){
		"join":    func(o Options) ([]Pair, Stats, error) { return Join(d, u, o) },
		"indexed": func(o Options) ([]Pair, Stats, error) { return JoinIndexed(idx, u, o) },
	}
	for _, mode := range []Mode{ModeCSSOnly, ModeSimJ, ModeSimJOpt} {
		opts := Options{Tau: 2, Alpha: 0.5, Mode: mode, GroupCount: 4, Workers: 4}
		chain, err := opts.chain()
		if err != nil {
			t.Fatal(err)
		}
		reversed := slices.Clone(chain)
		slices.Reverse(reversed)
		for feed, run := range feeds {
			want, wantSt, err := run(opts)
			if err != nil {
				t.Fatal(err)
			}
			ropts := opts
			ropts.FilterChain = reversed
			got, gotSt, err := run(ropts)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("mode=%v feed=%s", mode, feed)
			assertSamePairs(t, name, got, want)
			wi, gi := invariantStats(&wantSt), invariantStats(&gotSt)
			if !reflect.DeepEqual(gi, wi) {
				t.Fatalf("%s: invariant stats differ:\ndefault  %v\nreversed %v", name, wi, gi)
			}
			if gotSt.CSSPruned+gotSt.ProbPruned+gotSt.Candidates != gotSt.Pairs {
				t.Fatalf("%s: prune partition broken: %d+%d+%d != %d", name,
					gotSt.CSSPruned, gotSt.ProbPruned, gotSt.Candidates, gotSt.Pairs)
			}
		}
	}
}

// TestAdaptiveChainHoistsSelectiveBound pins the -explain recipe for a
// measured chain order: profile a join whose chain fronts six bounds that are
// blind on the adversarial workload, take the profile's EffectiveCostOrder,
// and run again in that order. The order must hoist the one selective bound,
// css, to the front, and the second run must return the same pairs for fewer
// bound evaluations.
func TestAdaptiveChainHoistsSelectiveBound(t *testing.T) {
	d, u := workload.Adversarial(workload.AdversarialConfig{
		Seed: 5, Queries: 9, Uncertain: 9, Families: 3,
		Vertices: 6, Chords: 1, FamilyLabels: 4, LabelsPerVertex: 2,
	})
	run := func(spec string) ([]Pair, Stats) {
		t.Helper()
		chain, err := filter.ParseChain(spec)
		if err != nil {
			t.Fatal(err)
		}
		// The cross product shows every pair to the chain: the index's label
		// prescreen would remove the cross-family pairs css is there to prune.
		opts := Options{Tau: 2, Alpha: 0.5, Workers: 2, FilterChain: chain, Obs: obs.New()}
		pairs, st, err := JoinWith(context.Background(), NewCrossSource(d, u), opts)
		if err != nil {
			t.Fatalf("chain %s: %v", spec, err)
		}
		return pairs, st
	}
	evals := func(st *Stats) (n int64) {
		for _, bc := range st.BoundProfile {
			n += bc.Evals
		}
		return n
	}

	want, static := run("count,lm,cstar,path-gram,pars,segos,css")
	if len(want) == 0 {
		t.Fatal("the adversarial join matched nothing; the pair comparison would be vacuous")
	}
	order := EffectiveCostOrder(static.BoundProfile)
	if !strings.HasPrefix(order, "css,") {
		t.Fatalf("effective-cost order %q does not start with css", order)
	}
	got, measured := run(order)
	assertSamePairs(t, "effective-cost order "+order, got, want)
	if evals(&measured) >= evals(&static) {
		t.Fatalf("order %s evaluated %d bounds, the static chain %d", order, evals(&measured), evals(&static))
	}
}
