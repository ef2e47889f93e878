package core

import (
	"context"
	"math"
	"math/rand"
	"slices"

	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// sampleOutcome reports how the Monte Carlo rung ended.
type sampleOutcome int

const (
	sampleDecided   sampleOutcome = iota // estimate cleared α by the margin
	sampleUndecided                      // estimate inside the margin
	sampleDeadline                       // the pair's soft deadline expired
	sampleCancelled                      // the whole join was cancelled
)

// sampleVerify estimates SimPτ(q, g) by Monte Carlo — the verdict ladder's
// middle rung, used when exact possible-world enumeration is out of budget:
// n worlds are drawn i.i.d. from the per-vertex label distributions
// (normalised, then rescaled by the graph's total mass), each checked with
// threshold-bounded GED. The pair is accepted when the estimate clears α by
// the Hoeffding margin ε = sqrt(ln(1/δ) / (2n)) with δ = 0.01, rejected when
// it falls below α by the same margin, and reported undecided in between
// (the ladder falls through to the approximate rung). A world whose GED call
// errs (VerifyMaxStates, or an injected fault) is unknown: a miss for the
// accept test, a hit for the reject test. A decided pair carries the cleared
// margin in Pair.CI.
//
// The estimator is deterministic: the RNG is seeded from the pair indices.
func sampleVerify(pairCtx, joinCtx context.Context, pi *pairIn, opts *Options, st *rec) (Pair, bool, sampleOutcome) {
	// Entry check mirrors the in-loop poll: a pair that arrives with its
	// deadline already spent must not draw a full sample.
	if pairCtx.Err() != nil {
		if joinCtx.Err() != nil {
			return Pair{}, false, sampleCancelled
		}
		return Pair{}, false, sampleDeadline
	}
	g, qi, gi := pi.g, pi.qi, pi.gi
	n := opts.SampleWorlds
	mass := pi.gs.Mass
	rng := rand.New(rand.NewSource(int64(qi)*1_000_003 + int64(gi) + 42))

	// Per-vertex cumulative distributions (normalised), with the candidate
	// labels' dictionary ids alongside so sampled worlds skip interning.
	type cdf struct {
		labels []ugraph.Label
		ids    []graph.LabelID
		sum    float64
	}
	dists := make([]cdf, g.NumVertices())
	for v := range dists {
		ls := g.Labels(v)
		s := 0.0
		for _, l := range ls {
			s += l.P
		}
		dists[v] = cdf{labels: ls, ids: g.LabelIDs(v), sum: s}
	}

	w := graph.New(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		w.AddVertexID(dists[v].labels[0].Name, dists[v].ids[0])
	}
	eids := g.EdgeLabelIDs()
	for i, e := range g.Edges() {
		w.MustAddEdgeID(e.From, e.To, e.Label, eids[i])
	}

	hits, errs := 0, 0
	best := Pair{Q: qi, G: gi, Distance: opts.Tau + 1}
	st.pv.Reset(pi.qs, pi.gs) // sampled worlds share g's structure
	for i := 0; i < n; i++ {
		if i%ctxCheckEvery == ctxCheckEvery-1 && pairCtx.Err() != nil {
			// A partial sample cannot honour the advertised margin; report
			// why the rung stopped and let the ladder degrade further.
			if joinCtx.Err() != nil {
				return Pair{}, false, sampleCancelled
			}
			return Pair{}, false, sampleDeadline
		}
		for v := 0; v < g.NumVertices(); v++ {
			r := rng.Float64() * dists[v].sum
			acc := 0.0
			k := len(dists[v].labels) - 1
			for i, l := range dists[v].labels {
				acc += l.P
				if r < acc {
					k = i
					break
				}
			}
			w.SetVertexLabelID(v, dists[v].labels[k].Name, dists[v].ids[k])
		}
		st.WorldsChecked++
		if st.pv.WorldLowerBound(w) > opts.Tau {
			continue
		}
		res, err := st.gedCompute(pi, w, opts)
		if err != nil {
			errs++
			continue
		}
		if !res.Exceeded {
			hits++
			if res.Distance < best.Distance {
				best.Distance = res.Distance
				best.World = st.worlds.keep(g, w)
				best.Mapping = st.takeMapping(res.Mapping)
			}
		}
	}

	estimate := float64(hits) / float64(n) * mass
	eps := hoeffdingMargin(n) * mass
	switch {
	case estimate-eps >= opts.Alpha:
		best.SimP = estimate
		best.CI = eps
		if opts.KeepMappings {
			best.Mapping = slices.Clone(best.Mapping)
		} else {
			best.Mapping = nil
		}
		return best, true, sampleDecided
	case float64(hits+errs)/float64(n)*mass+eps < opts.Alpha:
		return Pair{}, false, sampleDecided
	default:
		return Pair{}, false, sampleUndecided // inside the margin
	}
}

// hoeffdingMargin returns sqrt(ln(1/δ)/(2n)) for δ = 0.01.
func hoeffdingMargin(n int) float64 {
	const ln100 = 4.605170185988091
	return math.Sqrt(ln100 / (2 * float64(n)))
}
