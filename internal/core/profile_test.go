package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"simjoin/internal/filter"
	"simjoin/internal/obs"
)

// TestBoundProfileMatchesStats runs real joins in every Mode (parallel
// workers, so under -race this also exercises the per-worker merge) and
// checks the BoundProfile is exactly consistent with the aggregate Stats:
// the Mode's stages at their positions, and the identities of
// checkProfileIdentities. Merging a SimJ and a SimJ+opt join keeps (1, prob)
// and (1, group) apart, and the identities hold on the merge too.
func TestBoundProfileMatchesStats(t *testing.T) {
	d, u := smallWorkload(7, 10, 10)
	var merged Stats
	for _, c := range []struct {
		mode   Mode
		stages []string
	}{
		{ModeCSSOnly, []string{"css"}},
		{ModeSimJ, []string{"css", "prob"}},
		{ModeSimJOpt, []string{"css", "group"}},
	} {
		opts := DefaultOptions()
		opts.Mode = c.mode
		opts.Alpha = 0.5
		opts.Workers = 4
		opts.Obs = obs.New()
		_, st, err := Join(d, u, opts)
		if err != nil {
			t.Fatalf("mode %v: %v", c.mode, err)
		}
		name := fmt.Sprintf("mode %v", c.mode)
		if len(st.BoundProfile) != len(c.stages) {
			t.Fatalf("%s: profile has %d entries, want %d: %+v", name, len(st.BoundProfile), len(c.stages), st.BoundProfile)
		}
		for i, bc := range st.BoundProfile {
			if bc.Pos != i || bc.Bound != c.stages[i] {
				t.Errorf("%s: profile[%d] = (%d, %s), want (%d, %s)", name, i, bc.Pos, bc.Bound, i, c.stages[i])
			}
		}
		checkProfileIdentities(t, name, &st)
		if c.mode != ModeCSSOnly && st.ProbPruned == 0 {
			t.Errorf("%s: the second stage pruned nothing; the split is vacuous", name)
		}
		if c.mode != ModeCSSOnly {
			merged.Merge(&st)
		}

		// The registry carries the same profile as labelled counters.
		checkPublished(t, name, opts.Obs.Snapshot(), &st)
	}

	var got []string
	for _, bc := range merged.BoundProfile {
		got = append(got, fmt.Sprintf("(%d, %s)", bc.Pos, bc.Bound))
	}
	if want := []string{"(0, css)", "(1, group)", "(1, prob)"}; !slices.Equal(got, want) {
		t.Fatalf("merged profile %v, want %v", got, want)
	}
	checkProfileIdentities(t, "merged SimJ and SimJ+opt", &merged)
}

// checkProfileIdentities checks a Stats' prune tallies against its
// BoundProfile, entry by position: css alone at position 0 evaluates every
// pair the prescreens passed and its prunes are CSSPruned less IndexSkipped;
// the entries at position 1 evaluate what css passed and their prunes sum to
// ProbPruned; what passes both is Candidates; and each entry's prunes are
// PrunedBy under its name.
func checkProfileIdentities(t *testing.T, name string, st *Stats) {
	t.Helper()
	prof := st.BoundProfile
	if len(prof) == 0 || prof[0].Pos != 0 || prof[0].Bound != "css" {
		t.Fatalf("%s: profile does not open with (0, css): %+v", name, prof)
	}
	if got, want := prof[0].Evals, st.Pairs-st.IndexSkipped; got != want {
		t.Errorf("%s: css evals = %d, want %d (pairs the prescreens passed)", name, got, want)
	}
	if got := st.CSSPruned - st.IndexSkipped; got != prof[0].Prunes {
		t.Errorf("%s: CSSPruned - IndexSkipped = %d, position 0 prunes = %d", name, got, prof[0].Prunes)
	}
	passed := prof[0].Evals - prof[0].Prunes
	var evals, prunes int64
	for _, bc := range prof[1:] {
		if bc.Pos != 1 {
			t.Errorf("%s: %s at position %d, want 1", name, bc.Bound, bc.Pos)
		}
		evals += bc.Evals
		prunes += bc.Prunes
	}
	if len(prof) > 1 && evals != passed {
		t.Errorf("%s: position 1 evals = %d, want %d (pairs css passed)", name, evals, passed)
	}
	if st.ProbPruned != prunes {
		t.Errorf("%s: ProbPruned = %d, position 1 prunes = %d", name, st.ProbPruned, prunes)
	}
	if passed-prunes != st.Candidates {
		t.Errorf("%s: %d pairs pass every stage, Stats.Candidates = %d", name, passed-prunes, st.Candidates)
	}
	for _, bc := range prof {
		if got := st.PrunedBy[bc.Bound]; bc.Prunes != got {
			t.Errorf("%s: %s prunes = %d, PrunedBy = %d", name, bc.Bound, bc.Prunes, got)
		}
		if bc.Nanos < 0 {
			t.Errorf("%s: %s nanos = %d", name, bc.Bound, bc.Nanos)
		}
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

// TestPrunephaseProfiledZeroAlloc pins the profiling overhead contract: the
// pruning stages with per-stage profiling (timing, BoundProfile accounting,
// registry counters) must stay allocation-free per pair in steady state.
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
	jo := newJoinObs(&opts)
	st := newRec(jo, &opts)
	if !jo.profile {
		t.Fatal("profiling off with Obs set")
	}

	evalAll := func() {
		for qi := range d {
			for gi := range u {
				pi := pairIn{q: d[qi], g: u[gi], qs: qsigs[qi], gs: gsigs[gi], qi: qi, gi: gi}
				prunephase(&pi, &opts, &st)
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
