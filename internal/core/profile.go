package core

// Join-time profiling: per-stage cost/selectivity accounting and the
// explain/report surface.
//
// Each worker books what every pruning stage cost and pruned straight into
// its own Stats.BoundProfile (plain int64 fields, no atomics, no allocation
// in steady state); selectivity is positional, since the stage at position 1
// only sees the pairs css passed. At join end the workers' profiles merge,
// in stage order, and publish to the registry as labelled counters.
// WriteExplain renders the resulting cost model (simjoin -explain).

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"simjoin/internal/obs"
)

// BoundCost is one pruning stage's accumulated profile: how many pairs it
// evaluated at its position, how many it pruned, and (when profiling timing
// is enabled — Options.Obs or Options.Events set) the total evaluation wall
// time in nanoseconds.
type BoundCost struct {
	Pos    int    `json:"pos"`
	Bound  string `json:"bound"`
	Evals  int64  `json:"evals"`
	Prunes int64  `json:"prunes"`
	Nanos  int64  `json:"nanos"`
}

// Selectivity is the fraction of evaluated pairs the bound pruned at its
// position; 0 when the bound never ran.
func (c *BoundCost) Selectivity() float64 {
	if c.Evals == 0 {
		return 0
	}
	return float64(c.Prunes) / float64(c.Evals)
}

// PassRate is the fraction of evaluated pairs the bound let through.
func (c *BoundCost) PassRate() float64 {
	if c.Evals == 0 {
		return 0
	}
	return 1 - c.Selectivity()
}

// NsPerEval is the bound's measured cost per evaluation in nanoseconds.
func (c *BoundCost) NsPerEval() float64 {
	if c.Evals == 0 {
		return 0
	}
	return float64(c.Nanos) / float64(c.Evals)
}

// EffectiveCost is nanoseconds spent per pair pruned (cost-per-eval /
// selectivity): what a prune by this stage cost. A cheap, selective stage
// scores low; a stage that never prunes scores +Inf.
func (c *BoundCost) EffectiveCost() float64 {
	sel := c.Selectivity()
	if sel == 0 {
		return math.Inf(1)
	}
	return c.NsPerEval() / sel
}

// newRec builds one worker's recording context: its BoundProfile, one entry
// per stage of the Mode (always on — counting costs two adds per stage) and,
// when an event log is configured, the worker's private event buffer.
func newRec(jo *joinObs, opts *Options) rec {
	stages := opts.Mode.stages()
	r := rec{jo: jo}
	r.BoundProfile = make([]BoundCost, len(stages))
	for i, name := range stages {
		r.BoundProfile[i] = BoundCost{Pos: i, Bound: name}
	}
	if opts.Events != nil {
		r.eb = opts.Events.NewBuffer()
		r.ev.Bounds = make([]obs.BoundObs, 0, len(stages))
	}
	return r
}

// finish derives the worker's prune tallies from its BoundProfile and
// flushes any pending events; called once per worker after its task loop
// drains, before the Stats merge. Since prunephase stops at the first
// prune, a position's prunes are exactly the pairs it removed: position 0's
// (css) and the prescreens' skips are CSSPruned, the later position's are
// ProbPruned, and PrunedBy folds them by stage name.
func (st *rec) finish() {
	st.CSSPruned = st.IndexSkipped + st.BoundProfile[0].Prunes
	for _, bc := range st.BoundProfile[1:] {
		st.ProbPruned += bc.Prunes
	}
	st.PrunedBy = prunedBy(st.BoundProfile)
	st.eb.Flush()
}

// prunedBy folds a profile's prunes by bound name: Stats.PrunedBy as a view
// of Stats.BoundProfile, nil when nothing was pruned.
func prunedBy(prof []BoundCost) map[string]int64 {
	var m map[string]int64
	for _, bc := range prof {
		if bc.Prunes == 0 {
			continue
		}
		if m == nil {
			m = make(map[string]int64)
		}
		m[bc.Bound] += bc.Prunes
	}
	return m
}

// mergeBoundProfile folds src into dst by (position, bound), appending
// entries dst has not seen; the result stays sorted by position. Workers of
// one join share a Mode, so within a join this is element-wise addition;
// merged joins of different Modes keep (1, prob) and (1, group) apart.
func mergeBoundProfile(dst, src []BoundCost) []BoundCost {
	for _, s := range src {
		merged := false
		for i := range dst {
			if dst[i].Pos == s.Pos && dst[i].Bound == s.Bound {
				dst[i].Evals += s.Evals
				dst[i].Prunes += s.Prunes
				dst[i].Nanos += s.Nanos
				merged = true
				break
			}
		}
		if !merged {
			dst = append(dst, s)
		}
	}
	sort.SliceStable(dst, func(i, j int) bool {
		if dst[i].Pos != dst[j].Pos {
			return dst[i].Pos < dst[j].Pos
		}
		return dst[i].Bound < dst[j].Bound
	})
	return dst
}

// boundProfileMetric names the labelled registry counter carrying one
// BoundCost field for one (bound, position).
func boundProfileMetric(field, bound string, pos int) string {
	return obs.Name("simjoin_bound_"+field, "bound", bound, "pos", strconv.Itoa(pos))
}

// publishBoundProfile accumulates the profile into the registry as labelled
// counters, one per (bound, position, field).
func publishBoundProfile(reg *obs.Registry, prof []BoundCost) {
	for _, bc := range prof {
		reg.Counter(boundProfileMetric("evals_total", bc.Bound, bc.Pos)).Add(bc.Evals)
		reg.Counter(boundProfileMetric("prunes_total", bc.Bound, bc.Pos)).Add(bc.Prunes)
		reg.Counter(boundProfileMetric("eval_nanoseconds_total", bc.Bound, bc.Pos)).Add(bc.Nanos)
	}
}

// ── Explain rendering ───────────────────────────────────────────────────────

// explainStages maps display labels to the stage-latency histogram names
// WriteExplain summarises. The verdict-rung split reuses Verdict.String().
var explainStages = []struct{ label, metric string }{
	{"source (per graph)", "simjoin_source_seconds"},
	{"prune (per pair)", "simjoin_prune_seconds"},
	{"verify (per candidate)", "simjoin_verify_seconds"},
	{"verify[exact]", verifyRungMetric(VerdictExact)},
	{"verify[sampled]", verifyRungMetric(VerdictSampled)},
	{"verify[approx-bound]", verifyRungMetric(VerdictApproxBound)},
	{"verify[undecided]", verifyRungMetric(VerdictUndecided)},
}

// verifyRungMetric names the per-verdict verify latency histogram.
func verifyRungMetric(v Verdict) string {
	return obs.Name("simjoin_verify_rung_seconds", "verdict", v.String())
}

// WriteExplain renders the join's cost model: the index prescreen's skips,
// the per-bound table (evals, prunes, selectivity, ns/eval and effective
// cost) in stage order, the verification effort (worlds, GED searches and
// states, relaxed mapping lists), and P50/P95/P99 latency summaries for
// every pipeline stage. st supplies the profile and the counters, snap the
// stage histograms.
func WriteExplain(w io.Writer, st *Stats, snap obs.Snapshot) {
	prof := st.BoundProfile
	if st.IndexSkipped > 0 {
		fmt.Fprintf(w, "index prescreen: %d of %d pairs skipped before the chain (in CSSPruned, not in the table)\n",
			st.IndexSkipped, st.Pairs)
	}
	if len(prof) == 0 {
		fmt.Fprintln(w, "explain: no per-bound profile recorded (run the join with observability enabled)")
	} else {
		WriteBoundTable(w, prof)
	}
	fmt.Fprintf(w, "verification: %d worlds, %d GED searches, %d A* states (%d over budget)\n",
		st.WorldsChecked, st.GEDCalls, st.GEDStatesExpanded, st.GEDBudgetHits)
	fmt.Fprintf(w, "relaxed lists: %d pairs scored, %d mappings, %d fallbacks to one GED per world\n",
		st.RelaxedPairs, st.RelaxedMappings, st.RelaxedFallbacks)

	fmt.Fprintln(w, "stage latencies:")
	fmt.Fprintf(w, "  %-24s %10s %12s %12s %12s\n", "stage", "count", "p50", "p95", "p99")
	for _, s := range explainStages {
		h, ok := snap.Histograms[s.metric]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-24s %10d %12s %12s %12s\n", s.label, h.Count,
			formatSeconds(h.Quantile(0.50)),
			formatSeconds(h.Quantile(0.95)),
			formatSeconds(h.Quantile(0.99)))
	}
}

// WriteBoundTable renders just the per-bound cost model table for a profile.
func WriteBoundTable(w io.Writer, prof []BoundCost) {
	fmt.Fprintln(w, "per-bound cost model (chain order):")
	fmt.Fprintf(w, "  %-4s %-12s %12s %12s %8s %8s %12s %14s\n",
		"pos", "bound", "evals", "prunes", "sel", "pass", "ns/eval", "eff-cost")
	for i := range prof {
		bc := &prof[i]
		fmt.Fprintf(w, "  %-4d %-12s %12d %12d %8.4f %8.4f %12.0f %14s\n",
			bc.Pos, bc.Bound, bc.Evals, bc.Prunes, bc.Selectivity(), bc.PassRate(),
			bc.NsPerEval(), formatEffCost(bc.EffectiveCost()))
	}
}

// formatEffCost prints an effective cost, rendering the never-pruned +Inf
// case legibly.
func formatEffCost(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return strconv.FormatFloat(v, 'f', 0, 64)
}

// formatSeconds renders a duration quantile in engineering-friendly units.
func formatSeconds(s float64) string {
	switch {
	case math.IsNaN(s):
		return "-"
	case s < 1e-6:
		return fmt.Sprintf("%.0fns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}
