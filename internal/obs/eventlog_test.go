package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"sync"
	"testing"
	"time"
)

func TestEventLogSamplingCadence(t *testing.T) {
	l := NewEventLog(io.Discard, 3)
	var hits []int
	for i := 0; i < 10; i++ {
		if l.Sample() {
			hits = append(hits, i)
		}
	}
	if want := []int{0, 3, 6, 9}; len(hits) != len(want) {
		t.Fatalf("every=3 sampled at %v, want %v", hits, want)
	} else {
		for i := range want {
			if hits[i] != want[i] {
				t.Fatalf("every=3 sampled at %v, want %v", hits, want)
			}
		}
	}
	if got := l.Seen(); got != 10 {
		t.Fatalf("Seen() = %d, want 10", got)
	}

	var nilLog *EventLog
	if nilLog.Sample() {
		t.Fatal("nil EventLog sampled")
	}
	if nilLog.NewBuffer() != nil {
		t.Fatal("nil EventLog returned a buffer")
	}
}

func TestEventLogEmitRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	l := NewEventLog(&sink, 1)
	b := l.NewBuffer()
	ev := PairEvent{
		Q: 3, G: 7,
		Bounds: []BoundObs{
			{Bound: "css", Ns: 120, Pruned: false},
			{Bound: "group", Ns: 450, Pruned: true},
		},
		Verdict:  "pruned",
		PrunedBy: "group",
		Worlds:   0, GEDCalls: 0, GEDStates: 0,
		PruneNs: 570, VerifyNs: 0, TotalNs: 570,
	}
	b.Emit(&ev)
	ev2 := PairEvent{
		Q: 1, G: 2, Verdict: "exact", Result: true, SimP: 0.75,
		Worlds: 8, GEDCalls: 4, GEDStates: 321,
		PruneNs: 100, VerifyNs: 9000, TotalNs: 9100,
	}
	b.Emit(&ev2)
	b.Flush()

	if got := l.Emitted(); got != 2 {
		t.Fatalf("Emitted() = %d, want 2", got)
	}
	sc := bufio.NewScanner(&sink)
	var lines []map[string]interface{}
	for sc.Scan() {
		var m map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	if lines[0]["verdict"] != "pruned" || lines[0]["pruned_by"] != "group" {
		t.Errorf("pruned event = %v", lines[0])
	}
	bounds, ok := lines[0]["bounds"].([]interface{})
	if !ok || len(bounds) != 2 {
		t.Fatalf("pruned event bounds = %v, want 2 entries", lines[0]["bounds"])
	}
	last := bounds[1].(map[string]interface{})
	if last["b"] != "group" || last["pruned"] != true {
		t.Errorf("bounds[1] = %v", last)
	}
	if lines[1]["result"] != true || lines[1]["simp"].(float64) != 0.75 {
		t.Errorf("accepted event = %v", lines[1])
	}
	if lines[1]["ged_states"].(float64) != 321 {
		t.Errorf("ged_states = %v, want 321", lines[1]["ged_states"])
	}
}

// TestEventLogEmitZeroAlloc pins the hot path: encoding a sampled event into
// a warmed buffer (including its opportunistic flushes to the sink) must not
// allocate.
func TestEventLogEmitZeroAlloc(t *testing.T) {
	l := NewEventLog(io.Discard, 1)
	b := l.NewBuffer()
	ev := PairEvent{
		Q: 12, G: 34,
		Bounds:  []BoundObs{{Bound: "css", Ns: 210}, {Bound: "prob", Ns: 320}, {Bound: "group", Ns: 640, Pruned: true}},
		Verdict: "pruned", PrunedBy: "group",
		PruneNs: 1170, TotalNs: 1170,
	}
	// Warm until the buffer has been through at least one full flush cycle so
	// its capacity is settled.
	for i := 0; i < 2000; i++ {
		b.Emit(&ev)
	}
	if got := testing.AllocsPerRun(1000, func() { b.Emit(&ev) }); got != 0 {
		t.Fatalf("steady-state Emit allocated %v allocs/op, want 0", got)
	}
}

type failWriter struct{ err error }

func (w *failWriter) Write(p []byte) (int, error) { return 0, w.err }

func TestEventLogDropsOnSinkError(t *testing.T) {
	wantErr := errors.New("sink gone")
	l := NewEventLog(&failWriter{err: wantErr}, 1)
	b := l.NewBuffer()
	ev := PairEvent{Q: 1, G: 1, Verdict: "exact"}
	b.Emit(&ev)
	b.Flush()
	b.Emit(&ev)
	b.Flush()
	if got := l.Dropped(); got != 2 {
		t.Fatalf("Dropped() = %d, want 2", got)
	}
	if got := l.Emitted(); got != 0 {
		t.Fatalf("Emitted() = %d, want 0", got)
	}
	if !errors.Is(l.Err(), wantErr) {
		t.Fatalf("Err() = %v, want %v", l.Err(), wantErr)
	}
}

func TestEventLogSyncCounters(t *testing.T) {
	l := NewEventLog(io.Discard, 1)
	b := l.NewBuffer()
	ev := PairEvent{Q: 1, G: 1, Verdict: "exact"}
	for i := 0; i < 5; i++ {
		b.Emit(&ev)
	}
	b.Flush()
	reg := New()
	l.SyncCounters(reg)
	if got := reg.Snapshot().Counters["obs_events_emitted_total"]; got != 5 {
		t.Fatalf("after first sync, obs_events_emitted_total = %d, want 5", got)
	}
	b.Emit(&ev)
	b.Flush()
	l.SyncCounters(reg)
	if got := reg.Snapshot().Counters["obs_events_emitted_total"]; got != 6 {
		t.Fatalf("after second sync, obs_events_emitted_total = %d, want 6 (delta publication)", got)
	}
	// No drops: the dropped counter must not even be registered.
	if _, ok := reg.Snapshot().Counters["obs_events_dropped_total"]; ok {
		t.Fatal("obs_events_dropped_total registered with zero drops")
	}
	l.SyncCounters(nil) // nil-safety
	(*EventLog)(nil).SyncCounters(reg)
}

func TestAppendJSONStringEscapes(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`plain`, `"plain"`},
		{`quote"back\slash`, `"quote\"back\\slash"`},
		{"tab\tnewline\n", `"tab\tnewline\n"`},
		{"ctrl\x01", `"ctrl\u0001"`},
	} {
		if got := string(appendJSONString(nil, tc.in)); got != tc.want {
			t.Errorf("appendJSONString(%q) = %s, want %s", tc.in, got, tc.want)
		}
		var v string
		if err := json.Unmarshal(appendJSONString(nil, tc.in), &v); err != nil || v != tc.in {
			t.Errorf("appendJSONString(%q) does not round-trip: %v (%v)", tc.in, v, err)
		}
	}
}

func TestHistSnapshotQuantile(t *testing.T) {
	reg := New()
	h := reg.Histogram("q_test", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	snap := reg.Snapshot().Histograms["q_test"]
	if p50 := snap.Quantile(0.5); p50 < 1 || p50 > 2 {
		t.Errorf("P50 = %v, want within (1,2]", p50)
	}
	if p99 := snap.Quantile(0.99); p99 < 1 || p99 > 2 {
		t.Errorf("P99 = %v, want within (1,2]", p99)
	}

	// Observations past the last finite bound saturate there.
	h2 := reg.Histogram("q_test_inf", []float64{1})
	h2.Observe(100)
	snap2 := reg.Snapshot().Histograms["q_test_inf"]
	if p50 := snap2.Quantile(0.5); p50 != 1 {
		t.Errorf("+Inf-bucket quantile = %v, want saturation at 1", p50)
	}

	var empty HistSnapshot
	if q := empty.Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty histogram quantile = %v, want NaN", q)
	}
}

// slowWriter delays every Write, keeping the sink lock held long enough that
// concurrent workers' TryLock flushes fail and buffers grow toward their cap.
type slowWriter struct {
	delay time.Duration
	buf   bytes.Buffer
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return w.buf.Write(p)
}

// TestEventLogConcurrentWritersExactAccounting pins the event log's flush
// contract under concurrent writers (run it under -race): with W workers
// each emitting a unique (q, g) stream through its own EventBuffer into one
// contended sink,
//
//	emitted + dropped == total emits,   and
//	lines written == emitted,           with no (q, g) appearing twice.
//
// Together these say drop-counting is exact and TryLock contention can never
// double-emit or silently lose a record.
func TestEventLogConcurrentWritersExactAccounting(t *testing.T) {
	const (
		workers   = 8
		perWorker = 4000
	)
	sink := &slowWriter{delay: 50 * time.Microsecond}
	l := NewEventLog(sink, 1)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := l.NewBuffer()
			ev := PairEvent{Verdict: "exact"}
			for i := 0; i < perWorker; i++ {
				ev.Q, ev.G = w, i
				b.Emit(&ev)
			}
			b.Flush()
		}(w)
	}
	wg.Wait()

	total := int64(workers * perWorker)
	emitted, dropped := l.Emitted(), l.Dropped()
	if emitted+dropped != total {
		t.Fatalf("emitted %d + dropped %d = %d, want %d", emitted, dropped, emitted+dropped, total)
	}

	seen := make(map[[2]int]bool, emitted)
	var lines int64
	sc := bufio.NewScanner(bytes.NewReader(sink.buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var rec struct {
			Q int `json:"q"`
			G int `json:"g"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		key := [2]int{rec.Q, rec.G}
		if seen[key] {
			t.Fatalf("event (%d,%d) emitted twice", rec.Q, rec.G)
		}
		seen[key] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != emitted {
		t.Fatalf("sink holds %d lines but Emitted() = %d", lines, emitted)
	}
	t.Logf("concurrent flush: %d emitted, %d dropped of %d", emitted, dropped, total)
}

// TestEventLogDropsExactlyPendingUnderContention forces the drop path
// deterministically: the test holds the sink lock so every opportunistic
// flush fails, and a buffer pushed past its cap must drop exactly its
// pending count — no more (later events still flow) and no fewer.
func TestEventLogDropsExactlyPendingUnderContention(t *testing.T) {
	var sink bytes.Buffer
	l := NewEventLog(&sink, 1)
	b := l.NewBuffer()

	// Measure how many events fit before the cap by encoding one.
	probe := appendEvent(nil, &PairEvent{Q: 1, G: 1, Verdict: "exact"})
	perEvent := len(probe)

	l.mu.Lock() // every tryFlush now fails
	n := 0
	for emitted := 0; emitted <= eventMaxBuffer+2*eventFlushBytes; emitted += perEvent {
		b.Emit(&PairEvent{Q: 0, G: n, Verdict: "exact"})
		n++
	}
	l.mu.Unlock()

	dropped := l.Dropped()
	if dropped == 0 {
		t.Fatalf("no drops after %d events (%d bytes) against a held sink lock", n, n*perEvent)
	}
	if l.Emitted() != 0 {
		t.Fatalf("%d events emitted while the sink lock was held", l.Emitted())
	}

	// The buffer recovered: later events flush normally and the identity
	// emitted + dropped == total still holds exactly.
	const tail = 100
	for i := 0; i < tail; i++ {
		b.Emit(&PairEvent{Q: 1, G: i, Verdict: "exact"})
	}
	b.Flush()
	if got := l.Emitted() + l.Dropped(); got != int64(n+tail) {
		t.Fatalf("emitted %d + dropped %d = %d, want %d", l.Emitted(), l.Dropped(), got, n+tail)
	}
	lines := int64(bytes.Count(sink.Bytes(), []byte("\n")))
	if lines != l.Emitted() {
		t.Fatalf("sink holds %d lines but Emitted() = %d", lines, l.Emitted())
	}
}
