package simjoin

// Planner benchmarks: the adaptive filter chain (internal/plan) against the
// static chain on the adversarial workload built to punish static ordering
// (internal/workload/adversarial.go — the chain's six leading baseline
// bounds prune nothing there, only the trailing css bound decides pairs),
// plus an ER pair pinning that adaptivity stays within noise on a workload
// where the default order is already right. scripts/bench_plan.sh publishes
// these as BENCH_plan.json; benchgate gates them in CI.
//
// Every benchmark here joins through the explicit cross-product source: the
// chain must see every pair. Join's index prescreens would remove the
// adversarial workload's cross-family pairs before the static chain pays for
// them, and the comparison measures exactly that cost.

import (
	"context"
	"testing"

	"simjoin/internal/core"
	"simjoin/internal/filter"
	"simjoin/internal/plan"
	"simjoin/internal/workload"
)

// advPlanChain fronts every blind baseline bound ahead of the one bound that
// decides — the worst static order for the adversarial workload.
const advPlanChain = "count,lm,cstar,path-gram,pars,segos,css"

func advPlanOptions(b *testing.B) core.Options {
	chain, err := filter.ParseChain(advPlanChain)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Tau = 2
	opts.Alpha = 0.5
	opts.Mode = core.ModeCSSOnly
	opts.FilterChain = chain
	// The benchmark measures pruning cost, not verification: with every
	// vertex uncertain, css survivors (the same-family quarter of the cross
	// product) would drown chain time in world enumeration. A one-world
	// budget with the legacy cliff drops every survivor straight into
	// SkippedPairs, identically for the static and adaptive runs.
	opts.MaxWorlds = 1
	opts.Fallback = core.FallbackNone
	return opts
}

func BenchmarkJoinPlanStatic(b *testing.B) {
	d, u := workload.Adversarial(workload.DefaultAdversarialConfig())
	opts := advPlanOptions(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.JoinWith(context.Background(), core.NewCrossSource(d, u), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinPlanAdaptive(b *testing.B) {
	d, u := workload.Adversarial(workload.DefaultAdversarialConfig())
	opts := advPlanOptions(b)
	opts.Planner = plan.AutoChain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.JoinWith(context.Background(), core.NewCrossSource(d, u), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// The ER pair: the default chain is already well ordered here, so the
// adaptive controller's only effect is its measurement overhead (the warm-up
// epoch and every SampleEvery-th pair run the full chain without
// short-circuiting, to keep the cost model honest). Gating both keeps that
// overhead bounded. Count is sized so the workload's 1600 pairs amortize the
// 256-pair warm-up instead of sitting entirely inside it.
func BenchmarkJoinPlanER(b *testing.B) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 40
	d, u := workload.ER(cfg)
	opts := core.DefaultOptions()
	opts.Tau = 2
	opts.Alpha = 0.5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.JoinWith(context.Background(), core.NewCrossSource(d, u), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinPlanERAdaptive(b *testing.B) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 40
	d, u := workload.ER(cfg)
	opts := core.DefaultOptions()
	opts.Tau = 2
	opts.Alpha = 0.5
	opts.Planner = plan.AutoChain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.JoinWith(context.Background(), core.NewCrossSource(d, u), opts); err != nil {
			b.Fatal(err)
		}
	}
}
