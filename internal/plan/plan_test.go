package plan

import (
	"strings"
	"sync"
	"testing"
)

// feedPairs drives the controller like the engine does: every pair asks
// Next; warm-up pairs record every bound's (pruned, nanos) outcome, probed
// pairs record just the probed bound's.
func feedPairs(c *ChainController, n int, outcome func(pos int) (bool, int64)) {
	for p := 0; p < n; p++ {
		_, probe := c.Next()
		switch {
		case probe == ProbeAll:
			for pos := range c.names {
				pruned, nanos := outcome(pos)
				c.Record(pos, pruned, nanos)
			}
		case probe >= 0:
			pruned, nanos := outcome(probe)
			c.Record(probe, pruned, nanos)
		}
	}
}

func TestChainControllerWarmupMeasuresEverything(t *testing.T) {
	c := NewChainController(Config{WarmupPairs: 10, EpochPairs: 100, SampleEvery: 4}, []string{"a", "b"})
	for i := 0; i < 10; i++ {
		order, probe := c.Next()
		if probe != ProbeAll || order != nil {
			t.Fatalf("pair %d: want full-chain measurement during warm-up, got order=%v probe=%v", i, order, probe)
		}
	}
	if _, probe := c.Next(); probe == ProbeAll {
		t.Fatal("pair 11: warm-up must end after WarmupPairs pairs")
	}
}

func TestChainControllerReordersByEffectiveCost(t *testing.T) {
	// Bound 0 is expensive and never prunes; bound 1 is cheap and always
	// prunes. The first epoch must adopt [1, 0].
	c := NewChainController(Config{WarmupPairs: 8, EpochPairs: 16, SampleEvery: 4, Hysteresis: 0.1}, []string{"slow", "fast"})
	feedPairs(c, 64, func(pos int) (bool, int64) {
		if pos == 0 {
			return false, 1000
		}
		return true, 10
	})
	var order []int
	for i := 0; i < 16 && order == nil; i++ {
		order, _ = c.Next()
	}
	if order == nil || order[0] != 1 || order[1] != 0 {
		t.Fatalf("want adopted order [1 0], got %v", order)
	}
	reorders, epochs := c.Totals()
	if reorders < 1 || epochs < 1 {
		t.Fatalf("want >=1 reorder and epoch, got reorders=%d epochs=%d", reorders, epochs)
	}
	if got := c.OrderNames(); got != "fast,slow" {
		t.Fatalf("OrderNames = %q, want %q", got, "fast,slow")
	}
}

func TestChainControllerKeepsGoodStaticOrder(t *testing.T) {
	// The static order is already optimal: cheap pruning bound first. No
	// reorder may happen.
	c := NewChainController(Config{WarmupPairs: 8, EpochPairs: 16, SampleEvery: 4}, []string{"fast", "slow"})
	feedPairs(c, 128, func(pos int) (bool, int64) {
		if pos == 0 {
			return true, 10
		}
		return false, 1000
	})
	if reorders, _ := c.Totals(); reorders != 0 {
		t.Fatalf("static order was optimal; want 0 reorders, got %d", reorders)
	}
	if got := c.OrderNames(); got != "fast,slow" {
		t.Fatalf("OrderNames = %q, want static %q", got, "fast,slow")
	}
}

func TestChainControllerHysteresisBlocksMarginalFlips(t *testing.T) {
	// Both bounds prune identically; costs differ by ~5%, under the 50%
	// hysteresis margin — the order must not thrash away from static.
	c := NewChainController(Config{WarmupPairs: 8, EpochPairs: 16, SampleEvery: 2, Hysteresis: 0.5}, []string{"a", "b"})
	feedPairs(c, 256, func(pos int) (bool, int64) {
		if pos == 0 {
			return false, 105
		}
		return false, 100
	})
	if reorders, _ := c.Totals(); reorders != 0 {
		t.Fatalf("marginal improvement under hysteresis; want 0 reorders, got %d", reorders)
	}
}

func TestChainControllerProbesKeepRecording(t *testing.T) {
	cfg := Config{WarmupPairs: 4, EpochPairs: 8, SampleEvery: 4, ProbeMaxGap: 16}
	c := NewChainController(cfg, []string{"a", "b"})
	probes := make([]int, len(c.names))
	for i := 0; i < 200; i++ {
		_, probe := c.Next()
		switch {
		case probe == ProbeAll:
			for pos := range c.names {
				c.Record(pos, false, 1)
			}
		case probe >= 0:
			probes[probe]++
			c.Record(probe, false, 1)
		}
	}
	// Each bound's probe period starts at SampleEvery=4 and doubles to the
	// 16-pair cap, so over 196 post-warm-up pairs every bound keeps being
	// re-measured: 4+8+16+16+… ≥ 13 probes each.
	for pos, n := range probes {
		if n < 10 {
			t.Fatalf("bound %d probed %d times over 200 pairs, want >= 10 (probes: %v)", pos, n, probes)
		}
	}
	// The backoff must also bite: dense every-SampleEvery sampling would be
	// 49 probes per bound.
	for pos, n := range probes {
		if n >= 49 {
			t.Fatalf("bound %d probed %d times, want backoff below the dense 1-in-%d rate", pos, n, cfg.SampleEvery)
		}
	}
}

func TestChainControllerConcurrent(t *testing.T) {
	// Hammer Next/Record from several goroutines; the race detector is the
	// real assertion, plus totals must stay consistent.
	c := NewChainController(Config{WarmupPairs: 16, EpochPairs: 32, SampleEvery: 4}, []string{"a", "b", "c"})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				order, probe := c.Next()
				switch {
				case probe == ProbeAll:
					for pos := range c.names {
						c.Record(pos, pos == 0, int64(10*(pos+1)))
					}
				case probe >= 0:
					c.Record(probe, probe == 0, int64(10*(probe+1)))
				}
				if probe != ProbeAll && order != nil && len(order) != 3 {
					t.Errorf("bad order length %d", len(order))
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, epochs := c.Totals(); epochs == 0 {
		t.Fatal("want at least one epoch across 2000 pairs")
	}
}

func TestReportAccumulates(t *testing.T) {
	var r *Report
	r.NoteChain("a,b", 1, 2) // nil-safe
	r = &Report{}
	r.NoteChain("b,a", 1, 2)
	r.NoteChain("b,a", 2, 3)
	r.NoteChain("a,b", 0, 1)
	orders, reorders, epochs := r.Chain()
	if len(orders) != 2 || reorders != 3 || epochs != 6 {
		t.Fatalf("Chain() = %v, %d, %d; want 2 orders, 3 reorders, 6 epochs", orders, reorders, epochs)
	}
	if s := r.String(); !strings.Contains(s, "reorders=3") || !strings.Contains(s, "a,b | b,a") {
		t.Fatalf("String() = %q", s)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.ProbeMaxGap < c.SampleEvery {
		t.Fatalf("ProbeMaxGap %d below SampleEvery %d", c.ProbeMaxGap, c.SampleEvery)
	}
	if c.WarmupPairs <= 0 || c.EpochPairs <= 0 || c.SampleEvery <= 0 || c.Hysteresis <= 0 {
		t.Fatalf("withDefaults left a zero knob: %+v", c)
	}
	if a := AutoChain(); !a.Chain || a.Report == nil {
		t.Fatalf("AutoChain() = %+v", a)
	}
}
