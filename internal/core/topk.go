package core

import (
	"context"
	"sort"

	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// JoinTopK returns, for every uncertain graph in u, its k best-matching
// certain graphs — the "SPARQL query q is the best match for question n"
// reading of the paper's abstract. Candidates must still satisfy
// SimPτ ≥ α; ranking is by higher SimP, then smaller best-world distance,
// then query index. It runs one JoinContext with early exit disabled, so
// the reported SimP values are exact and comparable, then groups the answer
// set by uncertain graph, ranks each group and cuts it at k.
//
// The result slice is indexed like u; entries may hold fewer than k pairs
// (or none) when not enough queries qualify.
func JoinTopK(d []*graph.Graph, u []*ugraph.Graph, opts Options, k int) ([][]Pair, Stats, error) {
	if k < 1 {
		k = 1
	}
	opts.DisableEarlyExit = true
	pairs, st, err := JoinContext(context.Background(), d, u, opts)
	if err != nil {
		return nil, st, err
	}
	perQuestion := make([][]Pair, len(u))
	for _, p := range pairs {
		perQuestion[p.G] = append(perQuestion[p.G], p)
	}
	for gi, best := range perQuestion {
		sort.Slice(best, func(i, j int) bool { return pairBetter(best[i], best[j]) })
		if len(best) > k {
			perQuestion[gi] = best[:k]
		}
	}
	return perQuestion, st, nil
}

// pairBetter ranks pairs: higher SimP, then smaller distance, then lower
// query index for determinism.
func pairBetter(a, b Pair) bool {
	if a.SimP != b.SimP {
		return a.SimP > b.SimP
	}
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.Q < b.Q
}
