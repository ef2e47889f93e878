package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"simjoin/internal/filter"
	"simjoin/internal/obs"
)

// TestBoundProfileMatchesStats runs real joins (parallel workers, so under
// -race this also exercises the shard fold) and checks the folded
// BoundProfile is exactly consistent with the aggregate Stats: chain order
// preserved, first bound evaluates every non-skipped pair, per-bound prunes
// equal PrunedBy, total prunes equal CSSPruned + ProbPruned, and each
// position's evaluations equal the pairs its predecessors passed.
func TestBoundProfileMatchesStats(t *testing.T) {
	d, u := smallWorkload(7, 10, 10)
	for _, mode := range []Mode{ModeSimJ, ModeSimJOpt} {
		opts := DefaultOptions()
		opts.Mode = mode
		opts.Alpha = 0.5
		opts.Workers = 4
		opts.Obs = obs.New()
		_, st, err := Join(d, u, opts)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		chain := []string{"css", "prob"}
		if mode == ModeSimJOpt {
			chain = []string{"css", "group"}
		}
		if len(st.BoundProfile) != len(chain) {
			t.Fatalf("mode %v: profile has %d entries, want %d: %+v", mode, len(st.BoundProfile), len(chain), st.BoundProfile)
		}
		var prunes int64
		passed := st.Pairs - st.IndexSkipped
		for i, bc := range st.BoundProfile {
			if bc.Pos != i || bc.Bound != chain[i] {
				t.Errorf("mode %v: profile[%d] = (%d, %s), want (%d, %s)", mode, i, bc.Pos, bc.Bound, i, chain[i])
			}
			if bc.Evals != passed {
				t.Errorf("mode %v: %s evals = %d, want %d (pairs passing the previous bounds)", mode, bc.Bound, bc.Evals, passed)
			}
			if got := st.PrunedBy[bc.Bound]; bc.Prunes != got {
				t.Errorf("mode %v: %s prunes = %d, PrunedBy = %d", mode, bc.Bound, bc.Prunes, got)
			}
			if bc.Nanos < 0 {
				t.Errorf("mode %v: %s nanos = %d", mode, bc.Bound, bc.Nanos)
			}
			prunes += bc.Prunes
			passed -= bc.Prunes
		}
		if want := st.CSSPruned + st.ProbPruned - st.IndexSkipped; prunes != want {
			t.Errorf("mode %v: profile prunes sum to %d, want %d", mode, prunes, want)
		}
		if passed != st.Candidates {
			t.Errorf("mode %v: %d pairs pass the whole chain, Stats.Candidates = %d", mode, passed, st.Candidates)
		}

		// The registry carries the same profile as labelled counters.
		checkPublished(t, fmt.Sprintf("mode %v", mode), opts.Obs.Snapshot(), &st)
	}
}

// TestBoundProfileWithoutObs checks the counting half of the profile (evals,
// prunes) is maintained even with observability fully disabled — only the
// wall-clock half is gated on profiling.
func TestBoundProfileWithoutObs(t *testing.T) {
	d, u := smallWorkload(3, 8, 8)
	opts := DefaultOptions()
	opts.Alpha = 0.5
	_, st, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.BoundProfile) == 0 {
		t.Fatal("no BoundProfile without Obs; counting must stay on")
	}
	for _, bc := range st.BoundProfile {
		if bc.Nanos != 0 {
			t.Errorf("%s nanos = %d without profiling, want 0", bc.Bound, bc.Nanos)
		}
		if got := st.PrunedBy[bc.Bound]; bc.Prunes != got {
			t.Errorf("%s prunes = %d, PrunedBy = %d", bc.Bound, bc.Prunes, got)
		}
	}
}

// TestPrunephaseProfiledZeroAlloc pins the tentpole's overhead contract: the
// filter chain with per-bound profiling (timing, shard accounting, registry
// counters) must stay allocation-free per pair in steady state.
func TestPrunephaseProfiledZeroAlloc(t *testing.T) {
	d, u := smallWorkload(5, 6, 6)
	qsigs := filter.NewQSigs(d)
	gsigs := filter.NewGSigs(u)
	opts := DefaultOptions()
	opts.Alpha = 0.5
	// SimJ's chain, not SimJ+opt's, matching the filter package's own
	// zero-alloc gate: partitioning possible worlds legitimately allocates.
	opts.Mode = ModeSimJ
	if err := opts.normalise(); err != nil {
		t.Fatal(err)
	}
	opts.Obs = obs.New()
	chain := opts.chain()
	jo := newJoinObs(&opts)
	st := newRec(jo, &opts, chain)
	if !jo.profile {
		t.Fatal("profiling off with Obs set")
	}

	evalAll := func() {
		for qi := range d {
			for gi := range u {
				pi := pairIn{q: d[qi], g: u[gi], qs: qsigs[qi], gs: gsigs[gi], qi: qi, gi: gi}
				prunephase(&pi, &opts, chain, &st)
			}
		}
	}
	evalAll() // warm scratch, memoized sub-signatures, PrunedBy map
	if got := testing.AllocsPerRun(20, evalAll); got != 0 {
		t.Fatalf("profiled prunephase allocated %v allocs/op in steady state, want 0", got)
	}
}

// TestJoinEventLogEndToEnd drives the sampled event log through a real join
// at every=1 and checks every pair the chain saw (all but the prescreen
// skips) produced one valid JSONL record whose verdicts partition exactly
// like the Stats.
func TestJoinEventLogEndToEnd(t *testing.T) {
	d, u := smallWorkload(11, 9, 9)
	var sink bytes.Buffer
	opts := DefaultOptions()
	opts.Alpha = 0.5
	opts.Workers = 3
	opts.Events = obs.NewEventLog(&sink, 1)
	_, st, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexSkipped == 0 {
		t.Fatal("prescreens skipped nothing; the event count below would not tell skips apart")
	}
	if got, want := opts.Events.Emitted(), st.Pairs-st.IndexSkipped; got != want {
		t.Fatalf("emitted %d events at every=1, want %d (one per chained pair)", got, want)
	}
	if opts.Events.Dropped() != 0 {
		t.Fatalf("dropped %d events on an in-memory sink", opts.Events.Dropped())
	}

	counts := map[string]int64{}
	var worlds, gedCalls, gedStates int64
	sc := bufio.NewScanner(&sink)
	for sc.Scan() {
		var ev struct {
			Q, G    int
			Bounds  []struct{ B string }
			Verdict string `json:"verdict"`
			Worlds  int64  `json:"worlds"`
			GEDc    int64  `json:"ged_calls"`
			GEDs    int64  `json:"ged_states"`
			TotalNs int64  `json:"total_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		counts[ev.Verdict]++
		worlds += ev.Worlds
		gedCalls += ev.GEDc
		gedStates += ev.GEDs
		if ev.TotalNs < 0 {
			t.Fatalf("negative total_ns in %q", sc.Text())
		}
	}
	if got, want := counts["pruned"], st.CSSPruned+st.ProbPruned-st.IndexSkipped; got != want {
		t.Errorf("%d pruned events, Stats chain prunes = %d", got, want)
	}
	if got := counts["exact"]; got != st.ExactPairs {
		t.Errorf("%d exact events, Stats.ExactPairs = %d", got, st.ExactPairs)
	}
	if got := counts["sampled"]; got != st.SampledPairs {
		t.Errorf("%d sampled events, Stats.SampledPairs = %d", got, st.SampledPairs)
	}
	if worlds != st.WorldsChecked {
		t.Errorf("events sum %d worlds, Stats.WorldsChecked = %d", worlds, st.WorldsChecked)
	}
	if gedCalls != st.GEDCalls {
		t.Errorf("events sum %d GED calls, Stats.GEDCalls = %d", gedCalls, st.GEDCalls)
	}
	if gedStates != st.GEDStatesExpanded {
		t.Errorf("events sum %d GED states, Stats.GEDStatesExpanded = %d", gedStates, st.GEDStatesExpanded)
	}
	// Events imply profiling, so per-bound wall time was measured even
	// though no registry was attached.
	if len(st.BoundProfile) == 0 || st.BoundProfile[0].Nanos == 0 {
		t.Errorf("Events should enable bound timing; profile = %+v", st.BoundProfile)
	}
}

func TestMergeBoundProfile(t *testing.T) {
	a := []BoundCost{{Pos: 0, Bound: "css", Evals: 10, Prunes: 4, Nanos: 100}}
	b := []BoundCost{
		{Pos: 0, Bound: "css", Evals: 5, Prunes: 1, Nanos: 50},
		{Pos: 1, Bound: "prob", Evals: 10, Prunes: 2, Nanos: 200},
	}
	got := mergeBoundProfile(a, b)
	want := []BoundCost{
		{Pos: 0, Bound: "css", Evals: 15, Prunes: 5, Nanos: 150},
		{Pos: 1, Bound: "prob", Evals: 10, Prunes: 2, Nanos: 200},
	}
	if len(got) != len(want) {
		t.Fatalf("merge = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merge[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestEffectiveCost(t *testing.T) {
	cheap := BoundCost{Evals: 100, Prunes: 50, Nanos: 1000}   // 10ns/eval, sel 0.5 → 20
	pricey := BoundCost{Evals: 100, Prunes: 90, Nanos: 90000} // 900ns/eval, sel 0.9 → 1000
	dead := BoundCost{Evals: 100, Prunes: 0, Nanos: 500}
	if got := cheap.EffectiveCost(); math.Abs(got-20) > 1e-9 {
		t.Errorf("cheap effective cost = %v, want 20", got)
	}
	if got := pricey.EffectiveCost(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("pricey effective cost = %v, want 1000", got)
	}
	if !math.IsInf(dead.EffectiveCost(), 1) {
		t.Errorf("never-pruning bound effective cost = %v, want +Inf", dead.EffectiveCost())
	}
}

// TestWriteExplain renders the explain report off a real profiled join and
// checks the promised surfaces are present: the index prescreen line, the
// per-bound cost table, the verification and relaxed-list lines, and the
// stage latency quantiles.
func TestWriteExplain(t *testing.T) {
	d, u := smallWorkload(13, 8, 8)
	opts := DefaultOptions()
	opts.Alpha = 0.5
	opts.Obs = obs.New()
	_, st, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	WriteExplain(&out, &st, opts.Obs.Snapshot())
	text := out.String()
	if st.IndexSkipped == 0 {
		t.Fatal("prescreens skipped nothing; the prescreen line would be absent")
	}
	for _, want := range []string{
		fmt.Sprintf("index prescreen: %d of %d pairs", st.IndexSkipped, st.Pairs),
		"per-bound cost model", "pos", "bound", "evals", "prunes", "sel", "ns/eval", "eff-cost",
		"css", "group",
		fmt.Sprintf("verification: %d worlds, %d GED searches, %d A* states", st.WorldsChecked, st.GEDCalls, st.GEDStatesExpanded),
		fmt.Sprintf("relaxed lists: %d pairs scored, %d mappings, %d fallbacks", st.RelaxedPairs, st.RelaxedMappings, st.RelaxedFallbacks),
		"stage latencies", "p50", "p95", "p99",
		"prune (per pair)", "verify (per candidate)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain output lacks %q:\n%s", want, text)
		}
	}

	// The table comes from Stats alone: without a profile it says so, even
	// when the registry carries one.
	var out2 strings.Builder
	WriteExplain(&out2, &Stats{}, opts.Obs.Snapshot())
	if !strings.Contains(out2.String(), "no per-bound profile recorded") {
		t.Errorf("profile-less explain lacks the no-profile line:\n%s", out2.String())
	}
}

// TestStatsMergeFoldsCrossOrderProfiles asserts Stats.Merge and
// ProfileByBound keep eval/prune totals exact when the merged profiles hold
// the same bounds at *different* chain positions: Merge keys entries by
// (position, bound), ProfileByBound folds them by name.
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
