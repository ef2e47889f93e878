package ged

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"simjoin/internal/graph"
)

// randomCandidates restricts some wildcard vertices of g: each gets no list,
// a list of concrete candidates drawn from A–D (D occurs in no random
// graph), or such a list holding a wildcard as well.
func randomCandidates(rng *rand.Rand, g *graph.Graph) [][]graph.LabelID {
	names := []string{"A", "B", "C", "D"}
	cands := make([][]graph.LabelID, g.NumVertices())
	for v := range cands {
		if g.VertexLabelID(v) != graph.WildcardID || rng.Intn(5) == 0 {
			continue
		}
		for _, i := range rng.Perm(len(names))[:1+rng.Intn(3)] {
			cands[v] = append(cands[v], graph.InternLabel(names[i]))
		}
		if rng.Intn(6) == 0 {
			cands[v] = append(cands[v], graph.WildcardID)
		}
	}
	return cands
}

// candidateMisses counts the vertices m sends between a concrete label and a
// wildcard restricted to candidates without it, on either side.
func candidateMisses(g1, g2 *graph.Graph, c1, c2 [][]graph.LabelID, m Mapping) int {
	restricted := func(cands [][]graph.LabelID, v int) []graph.LabelID {
		if cands == nil || cands[v] == nil || slices.Contains(cands[v], graph.WildcardID) {
			return nil
		}
		return cands[v]
	}
	misses := 0
	for u, v := range m {
		if v == Deleted {
			continue
		}
		l1, l2 := g1.VertexLabelID(u), g2.VertexLabelID(v)
		switch {
		case l1 != graph.WildcardID && l2 == graph.WildcardID:
			if cs := restricted(c2, v); cs != nil && !slices.Contains(cs, l1) {
				misses++
			}
		case l1 == graph.WildcardID && l2 != graph.WildcardID:
			if cs := restricted(c1, u); cs != nil && !slices.Contains(cs, l2) {
				misses++
			}
		}
	}
	return misses
}

// TestRestrictedListsMatchReference runs the all-solutions search between
// random graphs with candidate-restricted wildcard vertices — on the larger
// graph, on the smaller, on both, as the first argument and as the second —
// at τ 0 to 3, and requires its list to equal the reference: the list
// without candidates, each mapping's cost raised by its candidate misses,
// keeping the mappings still within τ. Costs must come out non-decreasing,
// and ComputePrepared must find the list's first cost. Vacuity guards
// require restrictions that change the list with the restricted graph on
// each side of the search's orientation.
func TestRestrictedListsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	type listed struct {
		m    string
		cost int
	}
	collect := func(g1, g2 *Prepared, tau int) ([]listed, error) {
		var out []listed
		_, err := ComputeAllPrepared(g1, g2, Options{Threshold: tau}, func(m Mapping, cost int) {
			out = append(out, listed{fmt.Sprint(m), cost})
		})
		return out, err
	}
	sortListed := func(l []listed) {
		sort.Slice(l, func(i, j int) bool {
			if l[i].cost != l[j].cost {
				return l[i].cost < l[j].cost
			}
			return l[i].m < l[j].m
		})
	}
	changedA, changedB := 0, 0
	for i := 0; i < 1000; i++ {
		a := randomGraph(rng, 1+rng.Intn(6), rng.Intn(8))
		b := randomGraph(rng, 1+rng.Intn(6), rng.Intn(8))
		ca, cb := randomCandidates(rng, a), randomCandidates(rng, b)
		switch i % 3 {
		case 0:
			ca = nil
		case 1:
			cb = nil
		}
		for _, tau := range []int{0, 1, 2, 3} {
			for rev := 0; rev < 2; rev++ {
				g1, g2, c1, c2 := a, b, ca, cb
				if rev == 1 {
					g1, g2, c1, c2 = b, a, cb, ca
				}
				p1, p2 := Prepare(g1), Prepare(g2)
				plain, err := collect(p1, p2, tau)
				if err != nil {
					continue // over the mapping cap: no complete reference
				}
				var want []listed
				mappings := map[string]Mapping{}
				_, _ = ComputeAllPrepared(p1, p2, Options{Threshold: tau}, func(m Mapping, cost int) {
					mappings[fmt.Sprint(m)] = slices.Clone(m)
				})
				for _, l := range plain {
					if c := l.cost + candidateMisses(g1, g2, c1, c2, mappings[l.m]); c <= tau {
						want = append(want, listed{l.m, c})
					}
				}
				p1.Restrict(c1)
				p2.Restrict(c2)
				got, err := collect(p1, p2, tau)
				ctxt := fmt.Sprintf("case %d tau %d rev %d: %v%v vs %v%v", i, tau, rev, g1, c1, g2, c2)
				if err != nil {
					t.Fatalf("%s: %v", ctxt, err)
				}
				if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].cost < got[j].cost }) {
					t.Fatalf("%s: costs out of order: %v", ctxt, got)
				}
				r, err := ComputePrepared(p1, p2, Options{Threshold: tau}, nil)
				if err != nil || r.Exceeded != (len(got) == 0) || (len(got) > 0 && r.Distance != got[0].cost) {
					t.Fatalf("%s: ComputePrepared %+v, %v; list %v", ctxt, r, err, got)
				}
				sortListed(got)
				sortListed(want)
				sortListed(plain)
				if !slices.Equal(got, want) {
					t.Fatalf("%s:\nrestricted %v\nreference  %v", ctxt, got, want)
				}
				if (c1 == nil) != (c2 == nil) && !slices.Equal(got, plain) {
					// One graph is restricted: the searcher's a side when
					// it has no more vertices than the other and comes
					// first, or fewer and comes second.
					aIsG1 := g1.NumVertices() <= g2.NumVertices()
					if (c1 != nil) == aIsG1 {
						changedA++
					} else {
						changedB++
					}
				}
			}
		}
	}
	if changedA == 0 || changedB == 0 {
		t.Fatalf("vacuous: restrictions changed %d lists on the a side, %d on the b side", changedA, changedB)
	}
}
