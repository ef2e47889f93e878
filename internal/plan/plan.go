// Package plan closes the loop on the join's measured filter costs: instead
// of only *reporting* the per-bound cost model (core's -explain table), it
// feeds the same observations back into the running join.
//
// The adaptive chain (ChainController) reorders the filter chain online. A
// warm-up epoch evaluates the full chain on every pair to seed the per-bound
// selectivity/cost estimates; after that the estimates are kept
// unconditional and fresh by single-bound probes — each pair evaluates at
// most one bound ahead of the adopted walk, on a per-bound schedule whose
// period doubles after every probe (so an expensive bound is measured a
// handful of times, not on every Nth pair) — while the walk itself runs the
// bounds in ascending effective-cost order, short-circuiting on the first
// prune. Every epoch the order is recomputed, and adopted only when the
// modeled expected chain cost improves by more than the hysteresis margin —
// a noisy epoch cannot thrash the order. Every bound is sound, so any order
// admits exactly the same survivor set; only which bound gets credit for a
// prune moves.
//
// The package has no dependencies inside the module; internal/core imports
// it, not the other way around.
package plan

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Config enables and tunes the adaptive chain. The zero value disables it;
// AutoChain returns the standard "turn it on" configuration. All numeric
// knobs treat <= 0 as "use the default".
type Config struct {
	// Chain enables online filter-chain reordering.
	Chain bool

	// WarmupPairs is the length of the warm-up epoch: the first WarmupPairs
	// pairs evaluate the full chain to seed the cost model. Keeping it short
	// matters — warm-up pays every bound on every pair, the expensive ones
	// included; the probe schedule keeps refining the estimates afterwards.
	// Default 32.
	WarmupPairs int
	// EpochPairs is how many pairs pass between order recomputations after
	// warm-up. Default 4096.
	EpochPairs int
	// SampleEvery is the initial per-bound probe period after warm-up: a due
	// bound is evaluated ahead of the adopted walk on one pair (keeping its
	// selectivity/cost estimate unconditional), and its period then doubles
	// up to ProbeMaxGap. Default 16.
	SampleEvery int
	// ProbeMaxGap caps the per-bound probe period, so even a long-settled
	// bound is re-measured at least once per ProbeMaxGap pairs and drift
	// reaches the next epoch recomputation. Default 1024.
	ProbeMaxGap int
	// Hysteresis is the fractional improvement in modeled expected chain
	// cost a candidate order must show before it replaces the current one.
	// Default 0.15.
	Hysteresis float64

	// Report, when set, collects what the chain controller decided (adopted
	// orders, reorder counts) for -explain style output.
	Report *Report
}

// AutoChain enables the adaptive filter chain with default tuning.
func AutoChain() *Config { return &Config{Chain: true, Report: &Report{}} }

// withDefaults returns a copy with every unset knob at its default.
func (c Config) withDefaults() Config {
	if c.WarmupPairs <= 0 {
		c.WarmupPairs = 32
	}
	if c.EpochPairs <= 0 {
		c.EpochPairs = 4096
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 16
	}
	if c.ProbeMaxGap < c.SampleEvery {
		c.ProbeMaxGap = 1024
		if c.ProbeMaxGap < c.SampleEvery {
			c.ProbeMaxGap = c.SampleEvery
		}
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 0.15
	}
	return c
}

// Report accumulates what the chain controller did across one or more engine
// runs sharing a Config. All methods are safe on a nil receiver and under
// concurrent use.
type Report struct {
	mu       sync.Mutex
	orders   []string
	reorders int64
	epochs   int64
}

// NoteChain records one engine's final adopted order and its reorder/epoch
// totals. Duplicate order strings collapse.
func (r *Report) NoteChain(order string, reorders, epochs int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reorders += reorders
	r.epochs += epochs
	for _, o := range r.orders {
		if o == order {
			return
		}
	}
	r.orders = append(r.orders, order)
}

// Chain returns the adopted orders (sorted, deduplicated) and the summed
// reorder/epoch counts.
func (r *Report) Chain() (orders []string, reorders, epochs int64) {
	if r == nil {
		return nil, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	orders = append([]string(nil), r.orders...)
	sort.Strings(orders)
	return orders, r.reorders, r.epochs
}

// String renders the report on one line (used by logs and tests).
func (r *Report) String() string {
	if r == nil {
		return "plan: off"
	}
	orders, reorders, epochs := r.Chain()
	var b strings.Builder
	fmt.Fprintf(&b, "plan: epochs=%d reorders=%d", epochs, reorders)
	if len(orders) > 0 {
		fmt.Fprintf(&b, " orders=[%s]", strings.Join(orders, " | "))
	}
	return b.String()
}
