package core

// Join-time profiling: per-bound cost/selectivity accounting and the
// explain/report surface.
//
// The filter chain became reorderable in PR 4, but choosing an order needs
// data the join did not record: what each bound costs per evaluation and how
// much it prunes *at its position in the chain* (selectivity is positional —
// a bound late in the chain only sees the pairs its predecessors passed).
// Each worker accumulates per-position shards (plain int64 fields, no
// atomics, no allocation in steady state); at join end the shards fold into
// Stats.BoundProfile, in chain order, and publish to the registry as
// labelled counters. WriteExplain renders the resulting cost model; its
// effective-cost order is a measured chain to pass back as
// Options.FilterChain (simjoin -explain, then -filters).

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

// EffectiveCost is the cost model's ordering key: nanoseconds spent per pair
// pruned (cost-per-eval / selectivity). Cheap, selective bounds score low
// and belong early in the chain; a bound that never prunes scores +Inf.
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
		if sh.prunes == 0 {
			continue
		}
		if st.PrunedBy == nil {
			st.PrunedBy = make(map[string]int64)
		}
		st.PrunedBy[b.Name()] += sh.prunes
		if b.Kind() == filter.Structural {
			st.CSSPruned += sh.prunes
		} else {
			st.ProbPruned += sh.prunes
		}
	}
	st.eb.Flush()
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

// boundProfileFromSnapshot inverts publishBoundProfile: it scans the
// snapshot's labelled simjoin_bound_* counters and rebuilds the profile,
// sorted by (position, bound).
func boundProfileFromSnapshot(snap obs.Snapshot) []BoundCost {
	type key struct {
		pos   int
		bound string
	}
	acc := make(map[key]*BoundCost)
	entry := func(labels map[string]string) *BoundCost {
		pos, err := strconv.Atoi(labels["pos"])
		if err != nil || labels["bound"] == "" {
			return nil
		}
		k := key{pos: pos, bound: labels["bound"]}
		bc := acc[k]
		if bc == nil {
			bc = &BoundCost{Pos: pos, Bound: labels["bound"]}
			acc[k] = bc
		}
		return bc
	}
	for name, v := range snap.Counters {
		base, labels := obs.ParseName(name)
		switch base {
		case "simjoin_bound_evals_total":
			if bc := entry(labels); bc != nil {
				bc.Evals = v
			}
		case "simjoin_bound_prunes_total":
			if bc := entry(labels); bc != nil {
				bc.Prunes = v
			}
		case "simjoin_bound_eval_nanoseconds_total":
			if bc := entry(labels); bc != nil {
				bc.Nanos = v
			}
		}
	}
	if len(acc) == 0 {
		return nil
	}
	out := make([]BoundCost, 0, len(acc))
	for _, bc := range acc {
		out = append(out, *bc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Bound < out[j].Bound
	})
	return out
}

// ── Explain rendering ───────────────────────────────────────────────────────

// explainStages maps display labels to the stage-latency histogram names
// WriteExplain summarises. The verdict-rung split reuses Verdict.String().
var explainStages = []struct{ label, metric string }{
	{"source (per batch)", "simjoin_source_seconds"},
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

// WriteExplain renders the join's cost model: the per-bound table (evals,
// prunes, selectivity, ns/eval, effective cost and the effective-cost rank)
// in chain order, the implied effective-cost ordering, and P50/P95/P99
// latency summaries for every pipeline stage. st supplies the profile (the
// snapshot's copy is used when st carries none, e.g. when rendering from a
// saved -stats-json document) and snap supplies the stage histograms.
func WriteExplain(w io.Writer, st *Stats, snap obs.Snapshot) {
	prof := st.BoundProfile
	if len(prof) == 0 {
		prof = boundProfileFromSnapshot(snap)
	}
	if st.IndexSkipped > 0 {
		fmt.Fprintf(w, "index prescreen: %d of %d pairs skipped before the chain (in CSSPruned, not in the table)\n",
			st.IndexSkipped, st.Pairs)
	}
	if len(prof) == 0 {
		fmt.Fprintln(w, "explain: no per-bound profile recorded (run the join with observability enabled)")
	} else {
		WriteBoundTable(w, prof)
	}

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
	ranks := effectiveCostRanks(prof)
	fmt.Fprintln(w, "per-bound cost model (chain order):")
	fmt.Fprintf(w, "  %-4s %-12s %12s %12s %8s %8s %12s %14s %5s\n",
		"pos", "bound", "evals", "prunes", "sel", "pass", "ns/eval", "eff-cost", "rank")
	for i := range prof {
		bc := &prof[i]
		fmt.Fprintf(w, "  %-4d %-12s %12d %12d %8.4f %8.4f %12.0f %14s %5d\n",
			bc.Pos, bc.Bound, bc.Evals, bc.Prunes, bc.Selectivity(), bc.PassRate(),
			bc.NsPerEval(), formatEffCost(bc.EffectiveCost()), ranks[i])
	}
	fmt.Fprintf(w, "effective-cost order (cheapest pruning first): %s\n", EffectiveCostOrder(prof))
}

// effectiveCostLess is the one deterministic comparator behind every
// effective-cost ranking: ascending effective cost, ties broken by chain
// position, then by bound name. The name tie-break matters for name-folded
// profiles (ProfileByBound) where several bounds can share a position; without
// it two equal-cost bounds would rank in map-iteration order.
func effectiveCostLess(a, b *BoundCost) bool {
	ca, cb := a.EffectiveCost(), b.EffectiveCost()
	if ca != cb {
		return ca < cb
	}
	if a.Pos != b.Pos {
		return a.Pos < b.Pos
	}
	return a.Bound < b.Bound
}

// effectiveCostIndex returns the profile's indices sorted by effectiveCostLess.
func effectiveCostIndex(prof []BoundCost) []int {
	idx := make([]int, len(prof))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return effectiveCostLess(&prof[idx[a]], &prof[idx[b]])
	})
	return idx
}

// effectiveCostRanks assigns each profile entry its 1-based rank under
// ascending effective cost (ties broken by chain position, then bound name).
func effectiveCostRanks(prof []BoundCost) []int {
	ranks := make([]int, len(prof))
	for r, i := range effectiveCostIndex(prof) {
		ranks[i] = r + 1
	}
	return ranks
}

// EffectiveCostOrder returns the bound names ordered by ascending effective
// cost — the chain order a greedy cost-based optimizer would pick from this
// profile, as a "-filters"-compatible comma-separated list. Repeated names
// (one bound profiled at several positions, e.g. a merged cross-order
// profile) appear once, at their cheapest rank.
func EffectiveCostOrder(prof []BoundCost) string {
	seen := make(map[string]bool, len(prof))
	out := ""
	for _, j := range effectiveCostIndex(prof) {
		if seen[prof[j].Bound] {
			continue
		}
		seen[prof[j].Bound] = true
		if out != "" {
			out += ","
		}
		out += prof[j].Bound
	}
	return out
}

// ProfileByBound folds a profile by bound name, summing evals, prunes and
// nanos across chain positions; each entry keeps the smallest position the
// bound appeared at, and the result is sorted by name. This is the positional
// profile's order-independent view: runs of differently-ordered chains
// produce name-folded profiles whose eval/prune totals are directly
// comparable, which is why the prune-drift tooling keys on it.
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
