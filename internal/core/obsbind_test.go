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

	"simjoin/internal/graph"
	"simjoin/internal/obs"
	"simjoin/internal/ugraph"
)

// fillStats sets every field of a Stats to a distinct nonzero value via
// reflection, so coverage holes show up no matter which field is missed.
// PrunedBy is the one derived field: it is built from the BoundProfile fill,
// as rec.finish builds it.
func fillStats(t *testing.T, s *Stats) {
	t.Helper()
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(int64(100 + i))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			if v.Type().Field(i).Name == "BoundProfile" {
				// The profile merges by (position, bound), so the fill must be
				// a real entry, published under its labelled counters.
				f.Set(reflect.ValueOf([]BoundCost{{
					Pos: 0, Bound: "css",
					Evals: int64(100*i + 1), Prunes: int64(100*i + 2), Nanos: int64(100*i + 3),
				}}))
			} else {
				f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			}
		case reflect.Map: // PrunedBy, filled from BoundProfile below
		default:
			t.Fatalf("Stats field %s has unhandled kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	s.PrunedBy = prunedBy(s.BoundProfile)
}

// checkPublished requires snap to hold exactly what publishStats writes for
// st into a fresh registry: every statsCounterSpec and statsDurationSpec
// counter equals its Stats field, each BoundProfile entry's three
// simjoin_bound_* counters equal the entry, and no other simjoin_bound_*
// counter exists.
func checkPublished(t *testing.T, ctxt string, snap obs.Snapshot, st *Stats) {
	t.Helper()
	for _, c := range statsCounterSpec {
		if got, want := snap.Counters[c.name], *c.fld(st); got != want {
			t.Errorf("%s: %s = %d, Stats field = %d", ctxt, c.name, got, want)
		}
	}
	for _, c := range statsDurationSpec {
		if got, want := snap.Counters[c.name], int64(*c.fld(st)); got != want {
			t.Errorf("%s: %s = %d, Stats field = %d", ctxt, c.name, got, want)
		}
	}
	profiled := make(map[string]bool, 3*len(st.BoundProfile))
	for _, bc := range st.BoundProfile {
		for _, f := range []struct {
			field string
			want  int64
		}{{"evals_total", bc.Evals}, {"prunes_total", bc.Prunes}, {"eval_nanoseconds_total", bc.Nanos}} {
			name := boundProfileMetric(f.field, bc.Bound, bc.Pos)
			profiled[name] = true
			if got := snap.Counters[name]; got != f.want {
				t.Errorf("%s: %s = %d, BoundProfile entry = %d", ctxt, name, got, f.want)
			}
		}
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "simjoin_bound_") && !profiled[name] {
			t.Errorf("%s: registry holds %s, which no BoundProfile entry names", ctxt, name)
		}
	}
}

// TestStatsAddCoversAllFields asserts Stats.add folds in every field: a
// forgotten += line leaves the corresponding field at zero.
func TestStatsAddCoversAllFields(t *testing.T) {
	var src, dst Stats
	fillStats(t, &src)
	dst.add(&src)
	if !reflect.DeepEqual(dst, src) {
		t.Fatalf("Stats.add does not cover every field:\n got %+v\nwant %+v", dst, src)
	}
	dst.add(&src)
	v := reflect.ValueOf(dst)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int64:
			if got, want := f.Int(), 2*(100+int64(i)); got != want {
				t.Errorf("after double add, field %s = %d, want %d", name, got, want)
			}
		case reflect.Bool:
			if !f.Bool() {
				t.Errorf("after double add, flag %s lost", name)
			}
		case reflect.Slice:
			if name == "BoundProfile" {
				// Profiles merge by (position, bound): double add keeps one
				// entry with doubled tallies.
				bp := dst.BoundProfile
				if len(bp) != 1 || bp[0].Evals != 2*src.BoundProfile[0].Evals ||
					bp[0].Prunes != 2*src.BoundProfile[0].Prunes || bp[0].Nanos != 2*src.BoundProfile[0].Nanos {
					t.Errorf("after double add, BoundProfile = %+v, want one entry with doubled tallies of %+v", bp, src.BoundProfile[0])
				}
			} else if f.Len() != 2 {
				t.Errorf("after double add, log %s has %d entries, want 2", name, f.Len())
			}
		case reflect.Map:
			iter := f.MapRange()
			for iter.Next() {
				want := 2 * src.PrunedBy[iter.Key().String()]
				if got := iter.Value().Int(); got != want {
					t.Errorf("after double add, %s[%s] = %d, want %d", name, iter.Key(), got, want)
				}
			}
		}
	}
}

// TestStatsMetricTableCoversAllFields asserts the declarative field↔metric
// table behind Stats.add and publishStats names every Stats field
// exactly once, so Stats and the registry cannot drift apart as fields are
// added.
func TestStatsMetricTableCoversAllFields(t *testing.T) {
	// Count the counter-shaped fields; the Cancelled flag and Quarantined log
	// are deliberately registry-exempt (QuarantinedPairs carries the count),
	// BoundProfile is published per (bound, position) through
	// publishBoundProfile, and PrunedBy is a view of it.
	numeric := 0
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		switch typ.Field(i).Name {
		case "Cancelled", "Quarantined", "PrunedBy", "BoundProfile":
		default:
			numeric++
			if typ.Field(i).Type.Kind() != reflect.Int64 {
				t.Errorf("Stats field %s is not int64-backed yet absent from the exemption list", typ.Field(i).Name)
			}
		}
	}
	if got := len(statsCounterSpec) + len(statsDurationSpec); got != numeric {
		t.Fatalf("metric table has %d entries, Stats has %d counter fields", got, numeric)
	}
	// Each table entry must address a distinct field.
	var probe Stats
	seen := make(map[*int64]string)
	for _, c := range statsCounterSpec {
		p := c.fld(&probe)
		if prev, dup := seen[p]; dup {
			t.Errorf("counter %q and %q address the same Stats field", c.name, prev)
		}
		seen[p] = c.name
		if !strings.HasPrefix(c.name, "simjoin_") || !strings.HasSuffix(c.name, "_total") {
			t.Errorf("counter name %q does not follow simjoin_*_total", c.name)
		}
	}
	durSeen := make(map[*time.Duration]string)
	for _, c := range statsDurationSpec {
		p := c.fld(&probe)
		if prev, dup := durSeen[p]; dup {
			t.Errorf("duration counter %q and %q address the same Stats field", c.name, prev)
		}
		durSeen[p] = c.name
	}
}

// TestPublishStats publishes a fully populated Stats into a fresh registry
// and requires every published counter to equal its Stats field.
func TestPublishStats(t *testing.T) {
	var src Stats
	fillStats(t, &src)
	reg := obs.New()
	publishStats(reg, &src)
	checkPublished(t, "one publish", reg.Snapshot(), &src)
	// publishStats accumulates: a second publish doubles every counter.
	publishStats(reg, &src)
	var want Stats
	want.add(&src)
	want.add(&src)
	checkPublished(t, "second publish", reg.Snapshot(), &want)
}

// TestJoinStatsMatchRegistry runs real joins with a registry and a tracer
// attached, through Join's prescreened index feed and through the every-pair
// join (cross=true: joinEveryPair, the prescreens off), and checks (a) the
// registry holds exactly the returned Stats (checkPublished), (b) the
// histograms count what the Stats count — the chain sees every pair the
// prescreens did not skip, and every GED call is observed once — and (c) the
// tracer holds one core.join span and no per-pair spans.
func TestJoinStatsMatchRegistry(t *testing.T) {
	d, u := smallWorkload(7, 8, 8)
	for _, cross := range []bool{false, true} {
		for _, mode := range []Mode{ModeCSSOnly, ModeSimJ, ModeSimJOpt} {
			t.Run(fmt.Sprintf("cross=%v/%v", cross, mode), func(t *testing.T) {
				checkJoinRegistry(t, d, u, mode, cross)
			})
		}
	}
}

func checkJoinRegistry(t *testing.T, d []*graph.Graph, u []*ugraph.Graph, mode Mode, cross bool) {
	t.Helper()
	reg := obs.New()
	opts := DefaultOptions()
	opts.Mode = mode
	opts.Tau = 1
	opts.Alpha = 0.5
	opts.Obs = reg
	opts.Tracer = obs.NewTracer(128)
	var st Stats
	var err error
	if cross {
		_, st, err = joinEveryPair(d, u, opts)
	} else {
		_, st, err = Join(d, u, opts)
	}
	if err != nil {
		t.Fatalf("mode %v cross=%v: %v", mode, cross, err)
	}
	switch {
	case cross && st.IndexSkipped != 0:
		t.Fatalf("mode %v: every-pair join skipped %d pairs", mode, st.IndexSkipped)
	case !cross && st.IndexSkipped == 0:
		t.Fatalf("mode %v: Join's prescreens skipped nothing", mode)
	}
	chained := st.Pairs - st.IndexSkipped
	snap := reg.Snapshot()
	checkPublished(t, fmt.Sprintf("mode %v cross=%v", mode, cross), snap, &st)
	// The css bound leads every mode's chain, so it evaluates each chained
	// pair once.
	if got := snap.Counters[boundProfileMetric("evals_total", "css", 0)]; got != chained {
		t.Errorf("mode %v: css evals = %d, want %d", mode, got, chained)
	}
	for _, name := range []string{"ged_compute_seconds", "ged_states_expanded"} {
		if h := snap.Histograms[name]; h.Count != st.GEDCalls {
			t.Errorf("mode %v: %s count = %d, Stats.GEDCalls = %d", mode, name, h.Count, st.GEDCalls)
		}
	}
	if spans := opts.Tracer.Spans(); len(spans) != 1 || spans[0].Name != "core.join" {
		t.Errorf("mode %v: tracer holds %d spans %+v, want one core.join", mode, len(spans), spans)
	}
	// Stage histograms observed once per pair surviving to each stage.
	if h, ok := snap.Histograms["simjoin_prune_seconds"]; !ok || h.Count != chained {
		t.Errorf("mode %v: simjoin_prune_seconds count = %d, want %d", mode, h.Count, chained)
	}
	if h, ok := snap.Histograms["simjoin_verify_seconds"]; !ok || h.Count != st.Candidates {
		t.Errorf("mode %v: simjoin_verify_seconds count = %d, want %d", mode, h.Count, st.Candidates)
	}
}

// TestJoinContextCancelled verifies the cancellation contract: a cancelled
// context stops the join, ctx.Err() is surfaced, and no results leak out.
func TestJoinContextCancelled(t *testing.T) {
	d, u := smallWorkload(3, 10, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, st, err := JoinContext(ctx, d, u, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled join returned %d results, want none", len(res))
	}
	if st.Pairs >= int64(len(d))*int64(len(u)) {
		t.Fatalf("cancelled join still processed all %d pairs", st.Pairs)
	}
}

// TestJoinContextDeadline cancels mid-join via a deadline and checks the
// join returns promptly rather than completing the full cross product.
func TestJoinContextDeadline(t *testing.T) {
	d, u := smallWorkload(5, 12, 12)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done() // expired before the workers start
	_, _, err := JoinContext(ctx, d, u, DefaultOptions())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestJoinProgressReporter exercises the progress plumbing end to end: a
// fast interval must produce at least a final report with the exact totals.
func TestJoinProgressReporter(t *testing.T) {
	d, u := smallWorkload(9, 6, 6)
	var (
		mu    sync.Mutex
		lines []string
	)
	logger := obs.FuncLogger(func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	opts := DefaultOptions()
	opts.Alpha = 0.5
	opts.Workers = 2
	opts.Logger = logger
	opts.ProgressEvery = time.Millisecond
	_, st, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 {
		t.Fatal("no progress output")
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, "join done") {
		t.Fatalf("final line %q is not the completion report", last)
	}
	if want := fmt.Sprintf("%d/%d pairs", st.Pairs, st.Pairs); !strings.Contains(last, want) {
		t.Fatalf("final line %q lacks the pair total %s", last, want)
	}
}
