package obs

// Sampled "wide event" logging for the join pipeline.
//
// Aggregate counters answer "how much", but not "which pairs" — once a pair
// can die at any of the pruning stages and the verdict ladder degrades per
// pair, the question "why was this pair slow / pruned / undecided" needs one
// structured record per decision. Logging every pair would dominate the join, so the
// EventLog samples: every Nth pair emits one JSONL record carrying the pair
// ids, each bound's outcome and duration, the verdict-ladder rung that
// decided the pair, and the work counters (worlds enumerated, GED calls and
// A* states expanded, per-stage nanoseconds).
//
// The write path is built for the join's concurrency profile: each worker
// owns an EventBuffer and encodes events into it with zero steady-state
// allocations (manual JSON append into a reused byte slice). Buffers flush
// to the shared writer opportunistically (TryLock) so a slow sink never
// blocks a worker; a buffer that cannot flush before exceeding its cap drops
// its pending events and counts them, bounding both memory and interference.

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
)

const (
	// eventFlushBytes is the buffered size past which a worker attempts an
	// opportunistic flush after each emit.
	eventFlushBytes = 32 << 10
	// eventMaxBuffer caps a worker's pending bytes: if the shared writer is
	// contended and the buffer grows past this, the pending events are
	// dropped (and counted) instead of growing without bound.
	eventMaxBuffer = 256 << 10
)

// EventLog is the shared sink of the sampled pair-decision records: it owns
// the sampling counter, the output writer, and the emitted/dropped tallies.
// A nil *EventLog never samples and discards everything. Safe for concurrent
// use; workers write through per-worker EventBuffers (NewBuffer).
type EventLog struct {
	every   int64
	n       atomic.Int64
	emitted atomic.Int64
	dropped atomic.Int64

	// published* are sync watermarks for SyncCounters (delta publication
	// into a registry shared across runs).
	publishedEmitted atomic.Int64
	publishedDropped atomic.Int64

	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewEventLog returns an event log sampling one pair in every `every`
// (every <= 1 records all pairs), writing JSONL records to w.
func NewEventLog(w io.Writer, every int) *EventLog {
	if every < 1 {
		every = 1
	}
	return &EventLog{every: int64(every), w: w}
}

// Sample reports whether the caller's current pair is a sampled one. It is
// the per-pair fast path: one atomic add, no allocation, nil-safe.
func (l *EventLog) Sample() bool {
	if l == nil {
		return false
	}
	return (l.n.Add(1)-1)%l.every == 0
}

// Seen returns how many pairs passed through Sample, sampled or not.
func (l *EventLog) Seen() int64 {
	if l == nil {
		return 0
	}
	return l.n.Load()
}

// Emitted returns how many events were written to the sink.
func (l *EventLog) Emitted() int64 {
	if l == nil {
		return 0
	}
	return l.emitted.Load()
}

// Dropped returns how many events were discarded: buffer overflow under
// contention, or events pending when the sink had already failed.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// Err returns the first write error the sink reported, if any.
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// SyncCounters publishes the log's emitted/dropped tallies into reg as the
// obs_events_emitted_total / obs_events_dropped_total counters, adding only
// the delta since the previous sync (registries are cumulative across runs).
// Nil-safe on both sides.
func (l *EventLog) SyncCounters(reg *Registry) {
	if l == nil || reg == nil {
		return
	}
	if e := l.emitted.Load(); e > 0 || l.publishedEmitted.Load() > 0 {
		prev := l.publishedEmitted.Swap(e)
		if e > prev {
			reg.Counter("obs_events_emitted_total").Add(e - prev)
		}
	}
	if d := l.dropped.Load(); d > 0 || l.publishedDropped.Load() > 0 {
		prev := l.publishedDropped.Swap(d)
		if d > prev {
			reg.Counter("obs_events_dropped_total").Add(d - prev)
		}
	}
}

// NewBuffer returns a per-worker buffer writing into l. Returns nil for a
// nil log; a nil *EventBuffer discards emits.
func (l *EventLog) NewBuffer() *EventBuffer {
	if l == nil {
		return nil
	}
	return &EventBuffer{l: l, buf: make([]byte, 0, eventFlushBytes+4<<10)}
}

// EventBuffer is one worker's private staging area: events are encoded into
// buf without synchronisation and handed to the shared sink in batches. Not
// safe for concurrent use (one buffer per worker).
type EventBuffer struct {
	l       *EventLog
	buf     []byte
	pending int64
}

// BoundObs is one pruning stage's outcome on the sampled pair.
type BoundObs struct {
	Bound  string // the stage's name (css, prob or group)
	Ns     int64  // evaluation wall time
	Pruned bool
}

// PairEvent is one sampled pair decision. Callers reuse one PairEvent (and
// its Bounds slice) per worker; Emit copies everything it needs into the
// buffer.
type PairEvent struct {
	Q, G   int
	Bounds []BoundObs

	// Verdict is the decision path: "pruned" when a bound eliminated the
	// pair, otherwise the verdict-ladder rung ("exact", "sampled",
	// "approx-bound", "undecided").
	Verdict string
	// PrunedBy names the pruning bound when Verdict == "pruned".
	PrunedBy string
	// Result and SimP describe an accepted pair.
	Result bool
	SimP   float64

	// Work counters, scoped to this pair.
	Worlds    int64 // possible worlds enumerated during verification
	GEDCalls  int64 // exact GED computations run
	GEDStates int64 // A* states expanded across those calls

	// Stage latencies in nanoseconds.
	PruneNs  int64
	VerifyNs int64
	TotalNs  int64
}

// Emit encodes ev as one JSONL record into the buffer and opportunistically
// flushes. Allocation-free in steady state (the buffer is reused across
// flushes); nil-safe.
func (b *EventBuffer) Emit(ev *PairEvent) {
	if b == nil {
		return
	}
	b.buf = appendEvent(b.buf, ev)
	b.pending++
	if len(b.buf) >= eventFlushBytes && !b.tryFlush() && len(b.buf) > eventMaxBuffer {
		// The sink is contended and the buffer is past its cap: drop the
		// pending batch rather than stall the worker or grow without bound.
		b.l.dropped.Add(b.pending)
		b.pending = 0
		b.buf = b.buf[:0]
	}
}

// Flush writes any pending events to the sink, blocking on the sink lock.
// Workers call it once when they finish; nil-safe.
func (b *EventBuffer) Flush() {
	if b == nil || b.pending == 0 {
		return
	}
	b.l.mu.Lock()
	b.flushLocked()
	b.l.mu.Unlock()
}

func (b *EventBuffer) tryFlush() bool {
	if !b.l.mu.TryLock() {
		return false
	}
	b.flushLocked()
	b.l.mu.Unlock()
	return true
}

func (b *EventBuffer) flushLocked() {
	if b.pending == 0 {
		return
	}
	if b.l.err == nil {
		if _, err := b.l.w.Write(b.buf); err != nil {
			b.l.err = err
		}
	}
	if b.l.err != nil {
		b.l.dropped.Add(b.pending)
	} else {
		b.l.emitted.Add(b.pending)
	}
	b.pending = 0
	b.buf = b.buf[:0]
}

// appendEvent appends ev as one JSON line. Field names are part of the
// event-log contract documented in DESIGN.md §12 (a test keeps them in
// sync); encoding is manual so the hot path never allocates.
func appendEvent(buf []byte, ev *PairEvent) []byte {
	buf = append(buf, `{"q":`...)
	buf = strconv.AppendInt(buf, int64(ev.Q), 10)
	buf = append(buf, `,"g":`...)
	buf = strconv.AppendInt(buf, int64(ev.G), 10)
	if len(ev.Bounds) > 0 {
		buf = append(buf, `,"bounds":[`...)
		for i := range ev.Bounds {
			bo := &ev.Bounds[i]
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"b":`...)
			buf = appendJSONString(buf, bo.Bound)
			buf = append(buf, `,"ns":`...)
			buf = strconv.AppendInt(buf, bo.Ns, 10)
			if bo.Pruned {
				buf = append(buf, `,"pruned":true`...)
			}
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"verdict":`...)
	buf = appendJSONString(buf, ev.Verdict)
	if ev.PrunedBy != "" {
		buf = append(buf, `,"pruned_by":`...)
		buf = appendJSONString(buf, ev.PrunedBy)
	}
	if ev.Result {
		buf = append(buf, `,"result":true,"simp":`...)
		buf = strconv.AppendFloat(buf, ev.SimP, 'g', -1, 64)
	}
	buf = append(buf, `,"worlds":`...)
	buf = strconv.AppendInt(buf, ev.Worlds, 10)
	buf = append(buf, `,"ged_calls":`...)
	buf = strconv.AppendInt(buf, ev.GEDCalls, 10)
	buf = append(buf, `,"ged_states":`...)
	buf = strconv.AppendInt(buf, ev.GEDStates, 10)
	buf = append(buf, `,"prune_ns":`...)
	buf = strconv.AppendInt(buf, ev.PruneNs, 10)
	buf = append(buf, `,"verify_ns":`...)
	buf = strconv.AppendInt(buf, ev.VerifyNs, 10)
	buf = append(buf, `,"total_ns":`...)
	buf = strconv.AppendInt(buf, ev.TotalNs, 10)
	buf = append(buf, '}', '\n')
	return buf
}

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes and control characters. Bound names and verdict strings are
// plain ASCII, so the fast path is a straight copy.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		buf = append(buf, s[start:i]...)
		switch c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0',
				hexDigit(c>>4), hexDigit(c&0xf))
		}
		start = i + 1
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

func hexDigit(n byte) byte {
	if n < 10 {
		return '0' + n
	}
	return 'a' + n - 10
}
