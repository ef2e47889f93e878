// Command obsdiff compares two `simjoin -stats-json` snapshots and reports
// drift in the quantities a pipeline change is most likely to disturb
// silently: per-bound prune rates (the filter chain's measured selectivity,
// folded by bound name) and per-stage latency quantiles. It exits non-zero
// when the prune-rate drift exceeds its budget, so CI can pin the filter
// chain's pruning behaviour on a deterministic workload across changes;
// latency drift is reported but only gated when a budget is set (wall time
// is noisy in CI).
//
//	go run ./scripts/obsdiff -max-prune-drift 5 before.json after.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"simjoin/internal/core"
	"simjoin/internal/obs"
)

// doc mirrors the -stats-json document written by cmd/simjoin.
type doc struct {
	Stats   core.Stats   `json:"stats"`
	Metrics obs.Snapshot `json:"metrics"`
}

func load(path string) (*doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// stages lists the latency histograms compared between the two runs.
var stages = []string{
	"simjoin_source_seconds",
	"simjoin_prune_seconds",
	"simjoin_verify_seconds",
}

func main() {
	maxPrune := flag.Float64("max-prune-drift", 5, "per-bound prune-rate drift budget in percentage points")
	maxLatency := flag.Float64("max-latency-drift", 0, "stage P95 latency drift budget in percent (0 reports without gating)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: obsdiff [flags] <before.json> <after.json>")
		os.Exit(2)
	}
	a, err := load(flag.Arg(0))
	if err == nil {
		var b *doc
		b, err = load(flag.Arg(1))
		if err == nil {
			err = diff(a, b, *maxPrune, *maxLatency)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsdiff:", err)
		os.Exit(1)
	}
}

func diff(a, b *doc, maxPrune, maxLatency float64) error {
	failed := false

	fmt.Println("per-bound prune rates:")
	fmt.Printf("  %-12s %10s %10s %10s\n", "bound", "before", "after", "drift(pp)")
	aProf := core.ProfileByBound(a.Stats.BoundProfile)
	bByName := profileByName(core.ProfileByBound(b.Stats.BoundProfile))
	for i := range aProf {
		ac := &aProf[i]
		bc, ok := bByName[ac.Bound]
		if !ok {
			fmt.Printf("  %-12s %10.4f %10s missing in after run\n", ac.Bound, ac.Selectivity(), "-")
			failed = true
			continue
		}
		drift := (bc.Selectivity() - ac.Selectivity()) * 100
		status := ""
		if math.Abs(drift) > maxPrune {
			status = "  DRIFTED"
			failed = true
		}
		fmt.Printf("  %-12s %10.4f %10.4f %+10.2f%s\n",
			ac.Bound, ac.Selectivity(), bc.Selectivity(), drift, status)
	}
	aByName := profileByName(aProf)
	for _, bc := range core.ProfileByBound(b.Stats.BoundProfile) {
		if _, ok := aByName[bc.Bound]; !ok {
			fmt.Printf("  %-12s %10s %10.4f new in after run\n", bc.Bound, "-", bc.Selectivity())
		}
	}

	fmt.Println("stage latency (P95):")
	fmt.Printf("  %-24s %12s %12s %10s\n", "stage", "before", "after", "drift")
	for _, name := range stages {
		ha, okA := a.Metrics.Histograms[name]
		hb, okB := b.Metrics.Histograms[name]
		if !okA || !okB || ha.Count == 0 || hb.Count == 0 {
			continue
		}
		pa, pb := ha.Quantile(0.95), hb.Quantile(0.95)
		if pa <= 0 {
			continue
		}
		drift := (pb - pa) / pa * 100
		status := ""
		if maxLatency > 0 && drift > maxLatency {
			status = "  DRIFTED"
			failed = true
		}
		fmt.Printf("  %-24s %11.0fµs %11.0fµs %+9.1f%%%s\n", name, pa*1e6, pb*1e6, drift, status)
	}

	// Headline ratios for context (never gated — they restate the prune rates).
	fmt.Printf("candidate ratio: %.4f -> %.4f\n", a.Stats.CandidateRatio(), b.Stats.CandidateRatio())

	if failed {
		return fmt.Errorf("drift beyond budget (prune %vpp, latency %v%%)", maxPrune, maxLatency)
	}
	return nil
}

func profileByName(prof []core.BoundCost) map[string]*core.BoundCost {
	m := make(map[string]*core.BoundCost, len(prof))
	for i := range prof {
		m[prof[i].Bound] = &prof[i]
	}
	return m
}
