// Command benchgate compares a fresh scripts/bench.sh summary against the
// committed baseline (BENCH_join.json) and exits non-zero when any
// benchmark's ns/op or allocs/op regressed beyond its budget. CI runs it
// after `make bench-join` so a pipeline change that slows the join hot path
// — or quietly starts allocating in a kernel pinned at zero — fails loudly
// instead of silently rotting the baseline.
//
// The baseline's v2 schema additionally carries per-bound prune rates
// measured on the deterministic CI workload, keyed by bound name (every
// stage has one position); passing -stats (a `simjoin -stats-json` document
// from the same workload) gates prune-rate drift too, so a bounds change
// that silently weakens pruning fails the same way a slowdown does. Legacy
// v1 baselines (a plain benchmark map) still load.
//
//	go run ./scripts/benchgate -baseline BENCH_join.json -current /tmp/bench.json \
//	    -max-regress 25 -max-allocs-regress 10 -stats /tmp/stats.json -max-prune-drift 5
//
// After intentionally changing the filter chain's behaviour, re-bake the
// baseline's prune rates with:
//
//	go run ./scripts/benchgate -baseline BENCH_join.json -stats /tmp/stats.json -update-prune
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
)

type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Samples     int     `json:"samples"`
}

// baselineDoc is the v2 baseline schema: benchmarks plus the prune rates of
// the deterministic CI join. The v1 schema was the bare benchmarks map.
type baselineDoc struct {
	Benchmarks map[string]result  `json:"benchmarks"`
	PruneRates map[string]float64 `json:"prune_rates,omitempty"`
}

// load reads a summary in either schema: v2 (object with a "benchmarks" key)
// is tried first, then v1 (plain name → result map).
func load(path string) (*baselineDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v2 baselineDoc
	if err := json.Unmarshal(data, &v2); err == nil && len(v2.Benchmarks) > 0 {
		return &v2, nil
	}
	var v1 map[string]result
	if err := json.Unmarshal(data, &v1); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(v1) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &baselineDoc{Benchmarks: v1}, nil
}

// statsDoc is the slice of a `simjoin -stats-json` document benchgate needs:
// the per-bound profile of the join's pruning stages.
type statsDoc struct {
	Stats struct {
		BoundProfile []struct {
			Bound  string `json:"bound"`
			Evals  int64  `json:"evals"`
			Prunes int64  `json:"prunes"`
		} `json:"BoundProfile"`
	} `json:"stats"`
}

// pruneRates extracts bound name → prune-rate from a stats document. Every
// stage has one position, so its name keys it; a stage that evaluated no
// pair has no rate.
func pruneRates(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc statsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Stats.BoundProfile) == 0 {
		return nil, fmt.Errorf("%s: no BoundProfile (run simjoin with -stats-json)", path)
	}
	rates := make(map[string]float64, len(doc.Stats.BoundProfile))
	for _, bc := range doc.Stats.BoundProfile {
		if bc.Evals > 0 {
			rates[bc.Bound] = float64(bc.Prunes) / float64(bc.Evals)
		}
	}
	return rates, nil
}

func main() {
	baseline := flag.String("baseline", "BENCH_join.json", "committed baseline summary")
	current := flag.String("current", "", "freshly measured summary to gate")
	maxRegress := flag.Float64("max-regress", 25, "ns/op regression budget in percent")
	maxAllocs := flag.Float64("max-allocs-regress", 10, "allocs/op regression budget in percent (a zero-alloc baseline tolerates no allocation at all)")
	stats := flag.String("stats", "", "simjoin -stats-json document from the deterministic CI workload; gates per-bound prune-rate drift against the baseline's prune_rates")
	maxPrune := flag.Float64("max-prune-drift", 5, "prune-rate drift budget in percentage points")
	updatePrune := flag.Bool("update-prune", false, "rewrite the baseline with the prune rates measured in -stats (v2 schema) and exit")
	optional := flag.String("optional", "", "regexp of baseline benchmarks that may be absent from the current run (reported SKIPPED instead of failing as MISSING; e.g. env-gated milestone benches)")
	flag.Parse()

	if err := run(*baseline, *current, *stats, *optional, *maxRegress, *maxAllocs, *maxPrune, *updatePrune); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(baselinePath, currentPath, statsPath, optional string, maxRegress, maxAllocs, maxPrune float64, updatePrune bool) error {
	base, err := load(baselinePath)
	if err != nil {
		return err
	}
	var optionalRe *regexp.Regexp
	if optional != "" {
		if optionalRe, err = regexp.Compile(optional); err != nil {
			return fmt.Errorf("-optional: %w", err)
		}
	}

	if updatePrune {
		if statsPath == "" {
			return fmt.Errorf("-update-prune requires -stats")
		}
		rates, err := pruneRates(statsPath)
		if err != nil {
			return err
		}
		base.PruneRates = rates
		if err := writeBaseline(baselinePath, base); err != nil {
			return err
		}
		fmt.Printf("baked %d prune rates into %s\n", len(rates), baselinePath)
		return nil
	}

	if currentPath == "" {
		return fmt.Errorf("-current is required")
	}
	cur, err := load(currentPath)
	if err != nil {
		return err
	}
	if err := gate(base.Benchmarks, cur.Benchmarks, optionalRe, maxRegress, maxAllocs); err != nil {
		return err
	}
	if statsPath != "" {
		if err := gatePrune(base.PruneRates, statsPath, maxPrune); err != nil {
			return err
		}
	}
	return nil
}

func writeBaseline(path string, doc *baselineDoc) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func gate(base, cur map[string]result, optional *regexp.Regexp, budget, allocsBudget float64) error {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var failed bool
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			// Env-gated benches (e.g. the full shard milestone) are baked
			// into the baseline but absent from routine CI runs.
			if optional != nil && optional.MatchString(name) {
				fmt.Printf("SKIPPED %-24s not in current run (-optional)\n", name)
				continue
			}
			fmt.Printf("MISSING %-24s not in current run\n", name)
			failed = true
			continue
		}
		if b.NsPerOp <= 0 {
			return fmt.Errorf("baseline %s has ns_per_op %v", name, b.NsPerOp)
		}
		delta := (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		status := "ok"
		if delta > budget {
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-9s %-24s %12.0f -> %12.0f ns/op (%+.1f%%, budget +%.0f%%)\n",
			status, name, b.NsPerOp, c.NsPerOp, delta, budget)

		if !allocsOK(b.AllocsPerOp, c.AllocsPerOp, allocsBudget) {
			failed = true
			fmt.Printf("%-9s %-24s %12.0f -> %12.0f allocs/op (budget +%.0f%%)\n",
				"REGRESSED", name, b.AllocsPerOp, c.AllocsPerOp, allocsBudget)
		}
	}
	if failed {
		return fmt.Errorf("ns/op or allocs/op regression beyond budget (or missing benchmark)")
	}
	return nil
}

// gatePrune compares the measured per-bound prune rates against the
// baseline's. Rates are deterministic on the seeded CI workload, so drift
// means the filter chain's pruning behaviour actually changed.
func gatePrune(base map[string]float64, statsPath string, budget float64) error {
	if len(base) == 0 {
		return fmt.Errorf("baseline has no prune_rates; bake them with -update-prune -stats %s", statsPath)
	}
	cur, err := pruneRates(statsPath)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var failed bool
	for _, k := range keys {
		c, ok := cur[k]
		if !ok {
			fmt.Printf("MISSING %-24s bound not evaluated in current run\n", k)
			failed = true
			continue
		}
		drift := (c - base[k]) * 100
		status := "ok"
		if math.Abs(drift) > budget {
			status = "DRIFTED"
			failed = true
		}
		fmt.Printf("%-9s %-24s %12.4f -> %12.4f prune rate (%+.2fpp, budget ±%.0fpp)\n",
			status, k, base[k], c, drift, budget)
	}
	for k := range cur {
		if _, ok := base[k]; !ok {
			fmt.Printf("NEW       %-24s prune rate %.4f not in baseline (re-bake with -update-prune)\n", k, cur[k])
		}
	}
	if failed {
		return fmt.Errorf("prune-rate drift beyond ±%vpp (or missing bound)", budget)
	}
	return nil
}

// allocsOK gates the allocation count. A zero-alloc baseline admits no
// allocations at all (percentages are meaningless against zero); otherwise
// the current count may exceed the baseline by at most the percentage budget.
func allocsOK(base, cur, budget float64) bool {
	if base == 0 {
		return cur == 0
	}
	return (cur-base)/base*100 <= budget
}
