package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"simjoin/internal/fault"
	"simjoin/internal/graph"
	"simjoin/internal/obs"
	"simjoin/internal/ugraph"
)

// injectWorkload is the shared fixture of the fault-injection tests: a small
// workload with a known non-empty result set, plus that baseline result.
func injectWorkload(t *testing.T) ([]*graph.Graph, []*ugraph.Graph, Options, []Pair) {
	t.Helper()
	d, u := smallWorkload(7, 8, 8)
	opts := Options{Tau: 1, Alpha: 0.5, Mode: ModeSimJOpt, GroupCount: 4, Workers: 2}
	base, _, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("fixture produced no results; injection tests need a target pair")
	}
	return d, u, opts, base
}

// withoutPair filters one (Q, G) pair out of a result slice.
func withoutPair(pairs []Pair, q, g int) []Pair {
	out := make([]Pair, 0, len(pairs))
	for _, p := range pairs {
		if p.Q == q && p.G == g {
			continue
		}
		out = append(out, p)
	}
	return out
}

// renderPairs formats each result for byte-identical comparison: %+v covers
// every field including the witness world's full structure, while ignoring
// unexported lazily-built graph internals that reflect.DeepEqual would trip
// over.
func renderPairs(pairs []Pair) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = fmt.Sprintf("%+v", p)
	}
	return out
}

// samePairs reports whether two result slices render byte-identically.
func samePairs(a, b []Pair) bool {
	return reflect.DeepEqual(renderPairs(a), renderPairs(b))
}

// TestPairFaultQuarantinesOnlyInjectedPair arms the per-pair failpoint —
// panic and error kinds both end in a panic at the pair entry — against one
// known result pair and checks the contract from ISSUE.md: the join completes
// without crashing, exactly the injected pair is quarantined (with the fault
// recognisable in the record and a captured stack), and every uninjected
// pair's result is byte-identical to the fault-free baseline.
func TestPairFaultQuarantinesOnlyInjectedPair(t *testing.T) {
	d, u, opts, base := injectWorkload(t)
	target := base[0]
	key := fmt.Sprintf("%d/%d", target.Q, target.G)
	for _, kind := range []string{"panic", "error"} {
		t.Run(kind, func(t *testing.T) {
			defer fault.Reset()
			if err := fault.Enable("core.pair=" + kind + "@" + key); err != nil {
				t.Fatal(err)
			}
			got, st, err := Join(d, u, opts)
			if err != nil {
				t.Fatalf("join failed under injection: %v", err)
			}
			if st.QuarantinedPairs != 1 || len(st.Quarantined) != 1 {
				t.Fatalf("quarantine count: %+v", st)
			}
			q := st.Quarantined[0]
			if q.Q != target.Q || q.G != target.G {
				t.Fatalf("quarantined (%d,%d), injected (%d,%d)", q.Q, q.G, target.Q, target.G)
			}
			if !strings.Contains(q.Reason, "core.pair") {
				t.Errorf("quarantine reason %q does not name the failpoint", q.Reason)
			}
			if !strings.Contains(q.Stack, "joinPair") {
				t.Errorf("quarantine stack does not reach joinPair:\n%s", q.Stack)
			}
			if want := withoutPair(base, target.Q, target.G); !samePairs(got, want) {
				t.Errorf("uninjected results changed: got %d pairs, want %d", len(got), len(want))
			}
		})
	}
}

// TestPairFaultDelayLeavesResultsIntact checks the delay kind is purely
// temporal: same results, no quarantine, failpoint accounted as hit.
func TestPairFaultDelayLeavesResultsIntact(t *testing.T) {
	d, u, opts, base := injectWorkload(t)
	defer fault.Reset()
	key := fmt.Sprintf("%d/%d", base[0].Q, base[0].G)
	if err := fault.Enable("core.pair=delay:2ms@" + key); err != nil {
		t.Fatal(err)
	}
	got, st, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.QuarantinedPairs != 0 {
		t.Fatalf("delay quarantined a pair: %+v", st.Quarantined)
	}
	if !samePairs(got, base) {
		t.Error("delay changed the result set")
	}
	if fault.Hits("core.pair") != 1 {
		t.Errorf("failpoint hits = %d, want 1", fault.Hits("core.pair"))
	}
}

// TestWorldBudgetFaultDegradesPair injects budget exhaustion into one pair's
// world enumeration: the pair must leave the exact path and be re-decided by
// the ladder, while every other pair stays byte-identical.
func TestWorldBudgetFaultDegradesPair(t *testing.T) {
	d, u, opts, base := injectWorkload(t)
	target := base[0]
	defer fault.Reset()
	key := fmt.Sprintf("%d/%d", target.Q, target.G)
	if err := fault.Enable("core.verify.world=budget@" + key); err != nil {
		t.Fatal(err)
	}
	got, st, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.BudgetFallbacks == 0 {
		t.Fatalf("injected budget exhaustion not routed to the ladder: %+v", st)
	}
	if st.QuarantinedPairs != 0 {
		t.Fatalf("budget fault quarantined a pair: %+v", st.Quarantined)
	}
	rest := withoutPair(got, target.Q, target.G)
	if !samePairs(rest, withoutPair(base, target.Q, target.G)) {
		t.Error("uninjected results changed under budget injection")
	}
	// The degraded pair may be re-accepted by sampling or approx bounds; if
	// it is, its verdict must say so.
	for _, p := range got {
		if p.Q == target.Q && p.G == target.G && p.Verdict == VerdictExact {
			t.Errorf("degraded pair still claims an exact verdict: %+v", p)
		}
	}
}

// TestEveryFailpointContained arms each join-path failpoint in turn (panic
// kind, one firing) and checks both join drivers complete without crashing,
// quarantining at most the single faulted pair.
func TestEveryFailpointContained(t *testing.T) {
	d, u, opts, base := injectWorkload(t)
	idx := BuildIndex(d)
	for _, name := range []string{"core.pair", "core.verify.world", "ged.compute", "ugraph.worlds"} {
		for _, driver := range []string{"join", "indexed"} {
			t.Run(name+"/"+driver, func(t *testing.T) {
				defer fault.Reset()
				if err := fault.Enable(name + "=panic#1"); err != nil {
					t.Fatal(err)
				}
				var (
					got []Pair
					st  Stats
					err error
				)
				if driver == "join" {
					got, st, err = Join(d, u, opts)
				} else {
					got, st, err = JoinWith(context.Background(), idx.Source(u), opts)
				}
				if err != nil {
					t.Fatalf("join failed under %s injection: %v", name, err)
				}
				if fault.Hits(name) != 1 {
					t.Fatalf("failpoint %s fired %d times, want 1", name, fault.Hits(name))
				}
				if st.QuarantinedPairs != 1 || len(st.Quarantined) != 1 {
					t.Fatalf("one panic must quarantine exactly one pair: %+v", st)
				}
				q := st.Quarantined[0]
				if want := withoutPair(base, q.Q, q.G); !samePairs(got, want) {
					t.Errorf("results beyond the quarantined pair changed (got %d, want %d)", len(got), len(want))
				}
			})
		}
	}
}

// TestGEDErrorFaultIsNotFatal: error-kind injection at ged.compute lands on
// the existing budget-hit path (the world is rescued by the beam bound or
// left unresolved), so the join completes with no quarantine.
func TestGEDErrorFaultIsNotFatal(t *testing.T) {
	d, u, opts, _ := injectWorkload(t)
	defer fault.Reset()
	if err := fault.Enable("ged.compute=error#3"); err != nil {
		t.Fatal(err)
	}
	_, st, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.QuarantinedPairs != 0 {
		t.Fatalf("GED errors must degrade, not quarantine: %+v", st.Quarantined)
	}
	if st.GEDBudgetHits < 3 {
		t.Errorf("injected GED errors not counted as budget hits: %+v", st)
	}
}

// TestJoinContextCancelDeterministic cancels the join from the pair hook
// after exactly three pairs on a single worker and checks the partial Stats
// are deterministic: three pairs processed by the worker (Pairs beyond the
// prescreen skips of the graphs it swept), the run marked Cancelled, and no
// results leaked. The workload is 12 × 12 so that enough pairs (7 of 144)
// get past the index's prescreens for the hook to fire three times.
func TestJoinContextCancelDeterministic(t *testing.T) {
	d, u := smallWorkload(19, 12, 12)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	testPairHook = func(int) {
		seen++
		if seen == 3 {
			cancel()
		}
	}
	defer func() { testPairHook = nil }()
	res, st, err := JoinContext(ctx, d, u, Options{Tau: 1, Alpha: 0.5, Mode: ModeSimJ, Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled join leaked %d results", len(res))
	}
	if !st.Cancelled {
		t.Fatal("Stats.Cancelled not set on a cancelled run")
	}
	if got := st.Pairs - st.IndexSkipped; got != 3 {
		t.Fatalf("partial stats not deterministic: %d pairs processed, want 3", got)
	}
}

// TestUncancelledRunNotMarkedCancelled pins the flag's other side.
func TestUncancelledRunNotMarkedCancelled(t *testing.T) {
	d, u := smallWorkload(19, 4, 4)
	_, st, err := Join(d, u, Options{Tau: 1, Alpha: 0.5, Mode: ModeSimJ, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cancelled {
		t.Fatal("completed run marked Cancelled")
	}
}

// TestWatchdogFlagsStalledWorker stalls one pair with a delay failpoint well
// past the watchdog threshold and checks the stall is logged and counted
// while the join still completes normally.
func TestWatchdogFlagsStalledWorker(t *testing.T) {
	d, u, opts, base := injectWorkload(t)
	defer fault.Reset()
	key := fmt.Sprintf("%d/%d", base[0].Q, base[0].G)
	if err := fault.Enable("core.pair=delay:100ms@" + key); err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		lines []string
	)
	opts.Watchdog = 20 * time.Millisecond
	opts.Logger = obs.FuncLogger(func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	reg := obs.New()
	opts.Obs = reg
	got, st, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.QuarantinedPairs != 0 || !samePairs(got, base) {
		t.Fatal("watchdog must observe only; results changed")
	}
	if c := reg.Snapshot().Counters["simjoin_watchdog_stalls_total"]; c < 1 {
		t.Errorf("watchdog stall counter = %d, want >= 1", c)
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, l := range lines {
		if strings.Contains(l, "watchdog") && strings.Contains(l, "stalled") {
			found = true
		}
	}
	if !found {
		t.Errorf("no watchdog log line in %q", lines)
	}
}
