package plan

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ChainController is the online filter-chain optimizer: it decides, pair by
// pair, how to evaluate the chain — full measurement, a single-bound probe,
// or a plain walk of the currently adopted order — and recomputes that order
// at epoch boundaries from its own accumulated per-bound tallies.
//
// The state machine (DESIGN.md §15):
//
//	warm-up   pairs 1..WarmupPairs: every pair measures the full chain
//	          (ProbeAll) to seed every bound's unconditional tallies.
//	adapted   thereafter pairs walk the adopted order and short-circuit on
//	          the first prune. A short-circuited walk only observes bounds
//	          the earlier ones failed to prune, so it must not feed the
//	          tallies; instead each bound keeps its own probe schedule: when
//	          due, it is evaluated once ahead of the walk (Next returns its
//	          position) and Recorded — an unconditional sample, since the
//	          probe runs on the pair regardless of any other bound's outcome.
//	          A bound's probe period starts at SampleEvery and doubles after
//	          every probe up to ProbeMaxGap, so settled expensive bounds cost
//	          a handful of extra evaluations instead of one per SampleEvery
//	          pairs.
//	epoch     the first pair past the next epoch boundary recomputes the
//	          candidate order (ascending effective cost, ties broken by
//	          static position then name) and adopts it only when its modeled
//	          expected cost beats the current order's by > Hysteresis.
//
// All hot-path state is atomic; the epoch recomputation takes a try-lock so
// at most one worker pays for it while the rest keep joining.
type ChainController struct {
	cfg     Config
	names   []string
	onEpoch func(nanos int64)

	pairs     atomic.Int64
	nextEpoch atomic.Int64
	// order is the adopted permutation of chain positions, nil while the
	// static order is still in force.
	order    atomic.Pointer[[]int]
	reorders atomic.Int64
	epochs   atomic.Int64
	mu       sync.Mutex // serialises epoch recomputation
	bounds   []boundTally
}

// Probe dispositions returned by Next alongside the adopted order.
const (
	// ProbeNone: walk the order (nil = static), short-circuiting on the
	// first prune; record nothing.
	ProbeNone = -1
	// ProbeAll: warm-up — evaluate the full chain in static order and Record
	// every bound.
	ProbeAll = -2
)

// boundTally is one bound's unconditional observation totals, fed only by
// warm-up pairs and probes.
type boundTally struct {
	evals  atomic.Int64
	prunes atomic.Int64
	nanos  atomic.Int64
	// nextProbe is the pair number at or after which this bound is
	// due for a probe; gap is its current probe period (0 = not yet probed,
	// read as SampleEvery), doubling after every probe up to ProbeMaxGap.
	nextProbe atomic.Int64
	gap       atomic.Int64
}

// NewChainController builds a controller for a chain of the named bounds.
// cfg is copied with defaults applied; names must match the engine's chain
// order (names[i] is the bound at static position i).
func NewChainController(cfg Config, names []string) *ChainController {
	return &ChainController{
		cfg:    cfg.withDefaults(),
		names:  append([]string(nil), names...),
		bounds: make([]boundTally, len(names)),
	}
}

// SetOnEpoch installs a callback invoked with the wall-clock nanoseconds of
// each epoch recomputation (the engine feeds its epoch-seconds histogram).
// Must be set before the controller is shared across workers.
func (c *ChainController) SetOnEpoch(fn func(nanos int64)) { c.onEpoch = fn }

// Next books one pair and returns how to evaluate it: probe == ProbeAll means run the *full* chain in static order
// and Record every bound (warm-up); probe >= 0 means evaluate the bound at
// that static position first, Record it, then walk the returned order
// skipping it; ProbeNone means walk the order (nil = static),
// short-circuiting on the first prune, recording nothing. At most one bound
// is probed per pair — the first due one in static order.
func (c *ChainController) Next() (order []int, probe int) {
	k := c.pairs.Add(1)
	if k <= int64(c.cfg.WarmupPairs) {
		return nil, ProbeAll
	}
	if k > c.nextEpoch.Load() {
		c.epoch(k)
	}
	probe = ProbeNone
	for i := range c.bounds {
		b := &c.bounds[i]
		np := b.nextProbe.Load()
		if np > k {
			continue
		}
		g := b.gap.Load()
		if g == 0 {
			g = int64(c.cfg.SampleEvery)
		}
		// The CAS claims the probe: under concurrency exactly one pair takes
		// a due bound, the rest see the advanced deadline and move on.
		if b.nextProbe.CompareAndSwap(np, k+g) {
			if ng := g * 2; ng <= int64(c.cfg.ProbeMaxGap) {
				b.gap.Store(ng)
			} else {
				b.gap.Store(int64(c.cfg.ProbeMaxGap))
			}
			probe = i
			break
		}
	}
	if p := c.order.Load(); p != nil {
		return *p, probe
	}
	return nil, probe
}

// Record books one measured bound evaluation: the bound at static position
// pos ran for nanos and did or did not prune. Only warm-up pairs and probes
// may be recorded, or the selectivities stop being unconditional.
func (c *ChainController) Record(pos int, pruned bool, nanos int64) {
	b := &c.bounds[pos]
	b.evals.Add(1)
	if pruned {
		b.prunes.Add(1)
	}
	b.nanos.Add(nanos)
}

// epoch recomputes the order at a boundary. TryLock keeps the hot path
// wait-free: a worker that loses the race simply keeps joining with the
// current order.
func (c *ChainController) epoch(k int64) {
	if !c.mu.TryLock() {
		return
	}
	defer c.mu.Unlock()
	if k <= c.nextEpoch.Load() {
		return // another worker already ran this boundary
	}
	t0 := time.Now()

	n := len(c.bounds)
	sel := make([]float64, n)
	cost := make([]float64, n)
	eff := make([]float64, n)
	for i := range c.bounds {
		b := &c.bounds[i]
		evals := b.evals.Load()
		if evals > 0 {
			sel[i] = float64(b.prunes.Load()) / float64(evals)
			cost[i] = float64(b.nanos.Load()) / float64(evals)
		}
		if sel[i] > 0 {
			eff[i] = cost[i] / sel[i]
		} else {
			eff[i] = math.Inf(1)
		}
	}

	// Candidate: ascending effective cost, ties broken by static position
	// then name — the same deterministic rule core's -explain ranks use.
	cand := make([]int, n)
	for i := range cand {
		cand[i] = i
	}
	sort.SliceStable(cand, func(a, b int) bool {
		ia, ib := cand[a], cand[b]
		if eff[ia] != eff[ib] {
			return eff[ia] < eff[ib]
		}
		if ia != ib {
			return ia < ib
		}
		return c.names[ia] < c.names[ib]
	})

	cur := c.order.Load()
	curOrder := identity(n)
	if cur != nil {
		curOrder = *cur
	}
	curCost := expectedCost(curOrder, sel, cost)
	candCost := expectedCost(cand, sel, cost)
	adopt := false
	switch {
	case cur == nil && !sameOrder(cand, curOrder):
		// First adoption: the static order carries no prior investment, so
		// any modeled improvement is worth taking.
		adopt = candCost < curCost
	default:
		adopt = candCost < curCost*(1-c.cfg.Hysteresis)
	}
	if adopt && !sameOrder(cand, curOrder) {
		c.order.Store(&cand)
		c.reorders.Add(1)
	}

	c.epochs.Add(1)
	c.nextEpoch.Store(k + int64(c.cfg.EpochPairs))
	if c.onEpoch != nil {
		c.onEpoch(int64(time.Since(t0)))
	}
}

// expectedCost models the per-pair cost of walking the chain in the given
// order: each bound's cost is paid only by the fraction of pairs no earlier
// bound pruned.
func expectedCost(order []int, sel, cost []float64) float64 {
	pass := 1.0
	total := 0.0
	for _, i := range order {
		total += pass * cost[i]
		pass *= 1 - sel[i]
	}
	return total
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func sameOrder(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Totals returns the reorder and epoch counts.
func (c *ChainController) Totals() (reorders, epochs int64) {
	return c.reorders.Load(), c.epochs.Load()
}

// OrderNames renders the adopted order (the static chain while none has been
// adopted) as comma-joined bound names.
func (c *ChainController) OrderNames() string {
	ord := identity(len(c.names))
	if p := c.order.Load(); p != nil {
		ord = *p
	}
	parts := make([]string, len(ord))
	for j, idx := range ord {
		parts[j] = c.names[idx]
	}
	return strings.Join(parts, ",")
}
