package core

import (
	"fmt"

	"simjoin/internal/ged"
	"simjoin/internal/graph"
)

// Verdict records which rung of the verification ladder decided a pair.
// Production joins hit the MaxWorlds / VerifyMaxStates / PairDeadline cliffs
// on heavy pairs; instead of silently dropping them, the ladder degrades
// through cheaper decision procedures and labels every pair with the
// precision of the procedure that decided it. Candidates always partition as
//
//	Candidates = ExactPairs + SampledPairs + ApproxPairs + SkippedPairs
//	             (+ pairs quarantined after entering verification)
//
// so callers can see exactly how much of the join was decided at which
// fidelity.
type Verdict uint8

const (
	// VerdictNone is the zero value: the pair never entered verification
	// (pruned, or not a result of a pruned-only mode).
	VerdictNone Verdict = iota
	// VerdictExact: decided by exact possible-world enumeration; SimP is
	// exact (or an early-exit-certified bound on the accepting side).
	VerdictExact
	// VerdictSampled: decided by Monte Carlo world sampling; SimP is an
	// estimate and Pair.CI carries the Hoeffding confidence half-width the
	// decision cleared.
	VerdictSampled
	// VerdictApproxBound: decided by bounds — per-world CSS lower bounds to
	// rule worlds out and beam-search GED upper bounds (ged.Approximate) to
	// rule worlds in — either as the ladder's last resort or because exact
	// GED exhausted VerifyMaxStates mid-enumeration. Accepts are sound;
	// SimP is a certified lower bound.
	VerdictApproxBound
	// VerdictUndecided: every rung of the ladder failed to decide; the pair
	// is not reported and is counted in Stats.SkippedPairs.
	VerdictUndecided
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictNone:
		return "none"
	case VerdictExact:
		return "exact"
	case VerdictSampled:
		return "sampled"
	case VerdictApproxBound:
		return "approx-bound"
	case VerdictUndecided:
		return "undecided"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Fallback selects how far the verification ladder degrades when a pair
// exceeds its exact-enumeration budgets (MaxWorlds, VerifyMaxStates, or the
// pair deadline).
type Fallback int

const (
	// FallbackFull (the default) degrades through Monte Carlo sampling and
	// then the approximate-bound rung before giving up.
	FallbackFull Fallback = iota
	// FallbackSample degrades to Monte Carlo sampling only.
	FallbackSample
	// FallbackNone restores the legacy cliff: over-budget pairs are dropped
	// straight into Stats.SkippedPairs.
	FallbackNone
)

// String implements fmt.Stringer.
func (f Fallback) String() string {
	switch f {
	case FallbackFull:
		return "full"
	case FallbackSample:
		return "sample"
	case FallbackNone:
		return "none"
	default:
		return fmt.Sprintf("Fallback(%d)", int(f))
	}
}

// ParseFallback maps the -fallback flag values full|sample|none.
func ParseFallback(s string) (Fallback, error) {
	switch s {
	case "full":
		return FallbackFull, nil
	case "sample":
		return FallbackSample, nil
	case "none":
		return FallbackNone, nil
	default:
		return 0, fmt.Errorf("core: unknown fallback %q (want full|sample|none)", s)
	}
}

// QuarantineRecord documents one pair whose processing panicked. The pair is
// excluded from the results, the panic is contained to the pair, and the
// record (with the worker stack) lands in Stats.Quarantined so operators can
// file the offending input instead of losing the whole join.
type QuarantineRecord struct {
	Q, G   int
	Reason string
	Stack  string
}

// The approximate-bound rung's budgets: it examines at most approxWorlds of
// the most probable worlds, and its ged.Approximate upper bound (also the
// exact rung's rescue for worlds that exhaust VerifyMaxStates) searches with
// beam width approxBeam.
const (
	approxWorlds = 64
	approxBeam   = 8
)

// approxVerify is the ladder's last resort: bound SimP from the heaviest
// possible worlds only. Worlds are visited most-probable-first
// (ugraph.TopWorlds, at most approxWorlds of them); each is either ruled out
// by the per-world CSS lower bound or ruled in by the beam-search GED upper
// bound (ged.Approximate at approxBeam). The certified
// mass bounds
//
//	lo = Σ p(ruled-in)  ≤  SimP  ≤  hi = Mass − Σ p(ruled-out)
//
// decide the pair soundly in both directions: accept when lo ≥ α, reject
// when hi < α. Worlds neither bound can classify stay unknown; when the
// budget runs out before a bound crosses α the pair remains undecided.
func approxVerify(pi *pairIn, opts *Options, st *rec) (Pair, bool, bool) {
	lo := 0.0
	hi := pi.gs.Mass
	best := Pair{Q: pi.qi, G: pi.gi, Distance: opts.Tau + 1, Verdict: VerdictApproxBound}
	decided, accepted := false, false

	st.pv.Reset(pi.qs, pi.gs)
	pi.g.TopWorlds(approxWorlds, func(w *graph.Graph, p float64) bool {
		st.WorldsChecked++
		if st.pv.WorldLowerBound(w) > opts.Tau {
			hi -= p
		} else if d, m := ged.Approximate(pi.q, w, approxBeam); d <= opts.Tau {
			lo += p
			if d < best.Distance {
				best.Distance = d
				best.World = w.Clone()
				best.Mapping = m
			}
		}
		if lo >= opts.Alpha {
			decided, accepted = true, true
			return false
		}
		if hi < opts.Alpha {
			decided, accepted = true, false
			return false
		}
		return true
	})
	if !decided || !accepted {
		return Pair{}, false, decided
	}
	best.SimP = lo
	if !opts.KeepMappings {
		best.Mapping = nil
	}
	return best, true, true
}
