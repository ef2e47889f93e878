package core

// Join-time profiling: per-bound cost/selectivity accounting and the
// explain/report surface.
//
// Each worker accumulates per-position shards of what every chain stage cost
// and pruned (plain int64 fields, no atomics, no allocation in steady state);
// selectivity is positional, since a stage late in the chain only sees the
// pairs its predecessors passed. At join end the shards fold into
// Stats.BoundProfile, in chain order, and publish to the registry as
// labelled counters. WriteExplain renders the resulting cost model (simjoin
// -explain).

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"simjoin/internal/filter"
	"simjoin/internal/obs"
)

// BoundCost is one filter-chain stage's accumulated profile: how many pairs
// it evaluated at its chain position, how many it pruned, and (when
// profiling timing is enabled — Options.Obs or Options.Events set) the total
// evaluation wall time in nanoseconds.
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

// boundShard is one worker's accumulator for one chain position. Plain
// fields: each worker owns its shard slice exclusively, so recording is two
// or three integer adds with no synchronisation and no allocation.
type boundShard struct {
	evals, prunes, nanos int64
}

// newRec builds one worker's recording context: the per-position profile
// shards (always on — counting costs two adds per bound) and, when an event
// log is configured, the worker's private event buffer.
func newRec(jo *joinObs, opts *Options, chain []filter.Bound) rec {
	r := rec{jo: jo, prof: make([]boundShard, len(chain))}
	if opts.Events != nil {
		r.eb = opts.Events.NewBuffer()
		r.ev.Bounds = make([]obs.BoundObs, 0, len(chain))
	}
	return r
}

// finish folds the worker's shards into its Stats and flushes any pending
// events; called once per worker after its task loop drains, before the
// Stats merge. The shards become the chain-ordered BoundProfile and, since
// the walk stops at the first prune, a position's prunes are exactly the
// pairs it removed: they sum into PrunedBy by bound name and into CSSPruned
// or ProbPruned by bound kind.
func (st *rec) finish(chain []filter.Bound) {
	st.BoundProfile = make([]BoundCost, len(st.prof))
	for i := range st.prof {
		sh, b := &st.prof[i], chain[i]
		st.BoundProfile[i] = BoundCost{
			Pos:    i,
			Bound:  b.Name(),
			Evals:  sh.evals,
			Prunes: sh.prunes,
			Nanos:  sh.nanos,
		}
		if b.Kind() == filter.Structural {
			st.CSSPruned += sh.prunes
		} else {
			st.ProbPruned += sh.prunes
		}
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
// one join share a chain, so in practice this is element-wise addition.
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
// cost) in chain order, the verification effort (worlds, GED searches and
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

// ProfileByBound folds a profile by bound name, summing evals, prunes and
// nanos across chain positions; each entry keeps the smallest position the
// bound appeared at, and the result is sorted by name. This is the positional
// profile's position-independent view: the name-folded profiles of two runs
// compare bound by bound even when the runs' chains differ (a merged Stats
// of css,prob and css,group joins holds both), which is why the prune-drift
// tooling keys on it.
func ProfileByBound(prof []BoundCost) []BoundCost {
	byName := make(map[string]*BoundCost, len(prof))
	for i := range prof {
		bc := &prof[i]
		f := byName[bc.Bound]
		if f == nil {
			c := *bc
			byName[bc.Bound] = &c
			continue
		}
		f.Evals += bc.Evals
		f.Prunes += bc.Prunes
		f.Nanos += bc.Nanos
		if bc.Pos < f.Pos {
			f.Pos = bc.Pos
		}
	}
	out := make([]BoundCost, 0, len(byName))
	for _, bc := range byName {
		out = append(out, *bc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bound < out[j].Bound })
	return out
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
