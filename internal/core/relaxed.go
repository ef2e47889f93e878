package core

import (
	"errors"
	"math"
	"time"

	"simjoin/internal/ged"
	"simjoin/internal/graph"
)

// Verification against the relaxed graph's mappings.
//
// The possible worlds of an uncertain graph g differ only in vertex labels:
// edge edits, insertions and deletions cost the same in every world. Let ĝ be
// g's relaxation (GSig.Relaxed: every uncertain vertex a wildcard), and ĝ_L
// the same graph with each such wildcard v restricted to L(v), the labels v
// carries in g's worlds (ged.Prepared.Restrict). For any vertex mapping f
// from q onto g's structure,
//
//	cost(q, w, f) = cost(q, ĝ_L, f) + #{u : label(u) concrete, f(u) uncertain,
//	                                     label(u) ∈ L(f(u)),
//	                                     !IDsMatch(label_w(f(u)), label(u))},
//
// where label(u) ∈ L(v) counts a wildcard in L(v) as holding every label. A
// concrete label outside L(f(u)) costs its edit in ĝ_L already, as in every
// world. So whenever ged(q, w) ≤ τ, it is the least base + violations over
// the mappings f with base = cost(q, ĝ_L, f) ≤ τ: one all-solutions A* on
// (q, ĝ_L) lists them, and each later world is scored with integer compares
// instead of a GED. The lists are exact, not a bound, so results, SimP,
// Distance and World match the per-world loop bit for bit. Costs and
// heuristic against ĝ_L never exceed those against a world, so the
// all-solutions search expands every state one world's threshold A* would:
// when it finishes within VerifyMaxStates, no world's GED would have hit
// the budget either.

// relaxedMinWorlds is the fewest worlds a pair's groups must hold for the
// exact rung to build relaxed lists at threshold τ: 2^(τ+3). A build expands
// every state within τ against ĝ_L, where the wildcards loosen the
// heuristic, so its cost in single-world searches grows with τ: on Fig. 12's
// 12-vertex ER graphs about 3–4 at τ = 2 and 16–24 at τ = 5, while pairs of
// their 81-world graphs decide after 16 to 45 worlds. There lists cut
// verification by 37–56% at τ = 2–3 and by 14–27% at τ = 4, and cost 56–88%
// more at τ = 5; on the 8-world template workload (workload.Scaled, τ = 1)
// they raised the A* states by a quarter. 2^(τ+3) admits those ER graphs at
// τ ≤ 3 only, and not the template workload; join-er's graphs hold 2,187
// worlds (τ = 3), WebQ's 1 to 81 (τ = 1).
func relaxedMinWorlds(tau int) float64 { return math.Ldexp(1, tau+3) }

// testPerWorld, when set, keeps verifyExact from building relaxed lists, so
// every world gets its own GED: the reference the list path is diffed
// against in tests.
var testPerWorld bool

// relaxedReq is one label requirement of a listed mapping: it sends a query
// vertex with concrete label id onto g's vertex v, and costs one edit more in
// every world whose label at v does not match id.
type relaxedReq struct {
	v  int32
	id graph.LabelID
}

// relaxedMapping is one listed mapping: its cost against ĝ and its
// requirements, reqs[lo:hi] of the lists.
type relaxedMapping struct {
	base   int
	lo, hi int32
}

// relaxedLists holds one pair's listed mappings in non-decreasing base
// order, plus the mappings themselves (nq images each) for the KeepMappings
// fallback. It is per-worker scratch, rebuilt per pair.
type relaxedLists struct {
	ms   []relaxedMapping
	reqs []relaxedReq
	maps []int
	nq   int
}

// buildRelaxed lists the pair's mappings within τ against ĝ_L. A
// requirement is recorded only where the query label is one of the target
// vertex's candidates and not every candidate matches it. The search is
// booked like a GED call. buildRelaxed reports false, counted in
// RelaxedFallbacks, when the search exhausted VerifyMaxStates, found more
// than ged.MaxMappings mappings, or failed an injected fault; the caller
// then verifies world by world.
func (st *rec) buildRelaxed(pi *pairIn, opts *Options) bool {
	rl := &st.rl
	rl.ms, rl.reqs, rl.maps = rl.ms[:0], rl.reqs[:0], rl.maps[:0]
	rl.nq = pi.qs.NumV
	qids := pi.qs.VIDs
	relaxed := st.worlds.relaxedSide(pi.gs)
	rids := relaxed.Graph().VertexLabelIDs()
	t0 := st.gedStart()
	states, err := ged.ComputeAllPrepared(pi.qp, relaxed, ged.Options{Threshold: opts.Tau, MaxStates: opts.VerifyMaxStates},
		func(m ged.Mapping, cost int) {
			lo := len(rl.reqs)
			for u, v := range m {
				// Only uncertain vertices are wildcards in ĝ; a certain
				// vertex's label cost is already in the base.
				if v != ged.Deleted && qids[u] != graph.WildcardID && rids[v] == graph.WildcardID &&
					required(pi.g.LabelIDs(v), qids[u]) {
					rl.reqs = append(rl.reqs, relaxedReq{v: int32(v), id: qids[u]})
				}
			}
			rl.ms = append(rl.ms, relaxedMapping{base: cost, lo: int32(lo), hi: int32(len(rl.reqs))})
			rl.maps = append(rl.maps, m...)
		})
	st.bookGED(t0, states, err != nil && !errors.Is(err, ged.ErrTooManyMappings))
	if err != nil {
		st.RelaxedFallbacks++
		return false
	}
	st.RelaxedPairs++
	st.RelaxedMappings += int64(len(rl.ms))
	return true
}

// required reports whether a concrete label id costs an edit in some
// worlds but not in all on a vertex with candidate labels cands: some
// candidate matches it and another does not. A label no candidate matches
// costs its edit in every world, and the search against ĝ_L already
// counted it in the base.
func required(cands []graph.LabelID, id graph.LabelID) bool {
	some, all := false, true
	for _, c := range cands {
		if graph.IDsMatch(c, id) {
			some = true
		} else {
			all = false
		}
	}
	return some && !all
}

// score returns ged(q, w) for a world with vertex label ids wids when it is
// at most τ, with the index of the first listed mapping attaining it; at is
// -1 when the distance exceeds τ.
func (rl *relaxedLists) score(wids []graph.LabelID, tau int) (d, at int) {
	d, at = tau+1, -1
	for i := range rl.ms {
		m := &rl.ms[i]
		if m.base >= d {
			break // bases only grow: no later mapping can do better
		}
		c := m.base
		for _, r := range rl.reqs[m.lo:m.hi] {
			if l := wids[r.v]; l != r.id && l != graph.WildcardID {
				if c++; c >= d {
					break
				}
			}
		}
		if c < d {
			d, at = c, i
		}
	}
	return d, at
}

// mapping returns listed mapping i, valid until the lists are rebuilt.
func (rl *relaxedLists) mapping(i int) ged.Mapping {
	return rl.maps[i*rl.nq : (i+1)*rl.nq]
}

// gedStart returns the start time of a GED search when the GED histograms
// are on, the zero time otherwise.
func (st *rec) gedStart() time.Time {
	if st.jo.gedSeconds != nil {
		return time.Now()
	}
	return time.Time{}
}

// bookGED books one GED search of a verification rung, a Compute or a
// ComputeAll: GEDCalls, GEDStatesExpanded and — when it ran out of budget,
// which the rungs treat any Compute error as — GEDBudgetHits, plus one
// observation in each GED histogram, so each histogram's count equals
// Stats.GEDCalls.
func (st *rec) bookGED(t0 time.Time, states int, budgetHit bool) {
	st.GEDCalls++
	if st.jo.gedSeconds != nil {
		st.jo.gedSeconds.ObserveDuration(time.Since(t0))
		st.jo.gedStates.Observe(float64(states))
	}
	st.GEDStatesExpanded += int64(states)
	if budgetHit {
		st.GEDBudgetHits++
	}
}
