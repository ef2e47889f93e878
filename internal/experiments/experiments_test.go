package experiments

import (
	"bytes"
	"strings"
	"testing"

	"simjoin/internal/metrics"
)

// TestEveryExperimentRuns smoke-tests the full harness at a tiny scale: each
// table/figure function must succeed and render non-empty output. This keeps
// cmd/experiments and bench_test.go from rotting when internals change.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is not short")
	}
	s := Scale(0.12)
	cases := []struct {
		name string
		fn   func() (*metrics.Table, error)
	}{
		{"table2", func() (*metrics.Table, error) { return Table2Datasets(s) }},
		{"table3", func() (*metrics.Table, error) { return Table3EffectTau(s) }},
		{"fig9", func() (*metrics.Table, error) { return Fig9EffectAlpha(s) }},
		{"fig11", func() (*metrics.Table, error) { return Fig11AlphaEfficiency(s) }},
		{"fig12", func() (*metrics.Table, error) { return Fig12TauEfficiency(s, 2) }},
		{"fig13", func() (*metrics.Table, error) { return Fig13GroupNumber(s) }},
		{"fig14", func() (*metrics.Table, error) { return Fig14LabelCount(s) }},
		{"fig15", func() (*metrics.Table, error) { return Fig15FilterComparison(s, 2) }},
		{"table4", func() (*metrics.Table, error) { return Table4QASystems(s) }},
		{"table5", func() (*metrics.Table, error) { return Table5MatchProportion(s) }},
		{"fig17", func() (*metrics.Table, error) { return Fig17RelationCount(s) }},
		{"fig18", func() (*metrics.Table, error) { return Fig18FailureAnalysis(s) }},
		{"a1", func() (*metrics.Table, error) { return AblationBoundTightness(s) }},
		{"a2", func() (*metrics.Table, error) { return AblationEarlyExit(s) }},
		{"a3", func() (*metrics.Table, error) { return AblationGroupingPolicy(s) }},
		{"a4", func() (*metrics.Table, error) { return AblationParallelism(s, []int{1, 2}) }},
		{"a5", func() (*metrics.Table, error) { return AblationEdgeUncertainty(s) }},
		{"a6", func() (*metrics.Table, error) { return AblationTotalProbabilityBound(s) }},
		{"a8", func() (*metrics.Table, error) { return AblationEngines(s) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tab, err := c.fn()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var buf bytes.Buffer
			if err := tab.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if lines := strings.Count(buf.String(), "\n"); lines < 2 {
				t.Fatalf("%s rendered only %d lines:\n%s", c.name, lines, buf.String())
			}
		})
	}
	if cases, err := Fig10CaseStudy(s, 2); err != nil || len(cases) == 0 {
		t.Fatalf("fig10: %d cases, err %v", len(cases), err)
	}
}
