package filter

import (
	"testing"

	"simjoin/internal/workload"
)

// TestFilterChainSigZeroAlloc pins the steady-state allocation behaviour of
// the signature-based bounds: once the pair signatures exist and the
// memoized per-condition sub-signatures have been built (first evaluation),
// re-evaluating the CSS and Prob stages and the tight bound (with the
// worker's scratch and the pair's CSS bound) on a pair must not allocate at
// all. The Group stage is excluded — partitioning possible worlds
// legitimately builds conditioned graphs.
func TestFilterChainSigZeroAlloc(t *testing.T) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 4
	d, u := workload.ER(cfg)
	qsigs := NewQSigs(d)
	gsigs := NewGSigs(u)
	var sc Scratch

	// The context is hoisted and reused like the engine's per-worker rec.pctx:
	// a loop-local PairContext escapes through the Bound interface call and
	// costs one heap allocation per pair.
	var pc PairContext
	evalAll := func() {
		for _, qs := range qsigs {
			for _, gs := range gsigs {
				pc = PairContext{QS: qs, GS: gs, Tau: 2, Alpha: 0.5, GroupCount: 10, Scratch: &sc}
				CSS.Apply(&pc)
				Prob.Apply(&pc)
				TotalProbabilityUpperBoundSigScratch(&sc.BP, qs, gs, pc.Tau, pc.CSSLB)
			}
		}
	}
	evalAll() // warm: memoize conditioned sub-signatures, size the scratch

	if got := testing.AllocsPerRun(50, evalAll); got != 0 {
		t.Fatalf("steady-state filter chain evaluation allocated %v allocs/op, want 0", got)
	}
}

// TestWorldLowerBoundZeroAlloc pins the per-world verification kernel: after
// PairVerifier.Reset, each WorldLowerBound call on a possible world must be
// allocation-free.
func TestWorldLowerBoundZeroAlloc(t *testing.T) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 2
	d, u := workload.ER(cfg)
	qs := NewQSig(d[0])
	gs := NewGSig(u[0])
	w, _ := u[0].MostLikelyWorld()
	var pv PairVerifier
	pv.Reset(qs, gs)
	pv.WorldLowerBound(w)

	if got := testing.AllocsPerRun(100, func() { pv.WorldLowerBound(w) }); got != 0 {
		t.Fatalf("WorldLowerBound allocated %v allocs/op, want 0", got)
	}
}
