package filter

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// directPartition is the grouped bound's partition recomputed from scratch:
// every round rebuilds each group's signature and bounds, and splits the
// splittable group with the largest bound by Group.Split — the §6.2 policy
// without the memoized split tree.
func directPartition(qs *QSig, g *ugraph.Graph, k, tau int) []ugraph.Group {
	ub := func(gr ugraph.Group) float64 {
		gs := NewGSig(gr.G)
		if CSSLowerBoundUncertainSig(qs, gs) > tau {
			return 0
		}
		return math.Min(SimilarityUpperBoundSig(qs, gs, tau), gr.Mass)
	}
	groups := []ugraph.Group{g.AsGroup()}
	for len(groups) < k {
		best, bestUB := -1, -1.0
		for i, gr := range groups {
			if gr.G.SplitVertex() < 0 {
				continue
			}
			if b := ub(gr); b > bestUB {
				best, bestUB = i, b
			}
		}
		if best < 0 {
			break
		}
		a, b, _ := groups[best].Split()
		groups[best] = a
		groups = append(groups, b)
	}
	return groups
}

// describeGroupBound renders GroupBound's verdict with every kept group's
// mass bits and candidate label ids, for exact comparison.
func describeGroupBound(pruned bool, groups []ugraph.Group, built, cssPruned int64) string {
	s := fmt.Sprintf("pruned=%v built=%d cssPruned=%d", pruned, built, cssPruned)
	for _, gr := range groups {
		s += fmt.Sprintf(" [%x", math.Float64bits(gr.Mass))
		for v := 0; v < gr.G.NumVertices(); v++ {
			s += fmt.Sprint(gr.G.LabelIDs(v))
		}
		s += "]"
	}
	return s
}

// TestGroupBoundSharedSplitTree runs the group bound for many queries on one
// shared GSig from several goroutines, each in its own query order, and
// requires every outcome — prune verdict, group counts, and each kept
// group's mass bits and labels — to equal a fresh GSig's, and the partition
// to equal the direct recomputation's. Run it under -race: the split tree
// is built lazily by whichever pair reaches a node first.
func TestGroupBoundSharedSplitTree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomUncertain(rng, 7, 8, 3)
	for g.SplitVertex() < 0 {
		g = randomUncertain(rng, 7, 8, 3)
	}
	const tau, alpha, k = 2, 0.2, 6
	// Half the queries are near-copies of g (one candidate label per vertex,
	// one edge dropped), so their partitions survive and differ; half are
	// random and mostly pruned.
	qsigs := make([]*QSig, 16)
	for i := range qsigs {
		if i%2 == 1 {
			qsigs[i] = NewQSig(randomCertain(rng, 5+rng.Intn(4), 4+rng.Intn(6)))
			continue
		}
		q := graph.New(g.NumVertices())
		for v := 0; v < g.NumVertices(); v++ {
			ls := g.Labels(v)
			q.AddVertex(ls[rng.Intn(len(ls))].Name)
		}
		drop := rng.Intn(g.NumEdges())
		for j, e := range g.Edges() {
			if j != drop {
				q.MustAddEdge(e.From, e.To, e.Label)
			}
		}
		qsigs[i] = NewQSig(q)
	}
	want := make([]string, len(qsigs))
	survived := 0
	for i, qs := range qsigs {
		gs := NewGSig(g)
		pruned, out, built, cssPruned := GroupBound(&Scratch{}, qs, gs, CSSLowerBoundUncertainSig(qs, gs), tau, alpha, k)
		want[i] = describeGroupBound(pruned, out, built, cssPruned)
		groups := directPartition(qs, g, k, tau)
		if int64(len(groups)) != built {
			t.Fatalf("query %d: %d groups built, direct partition %d", i, built, len(groups))
		}
		var kept []ugraph.Group
		for _, gr := range groups {
			if CSSLowerBoundUncertainSig(qs, NewGSig(gr.G)) <= tau {
				kept = append(kept, gr)
			}
		}
		if !pruned {
			if len(out) > 1 {
				survived++
			}
			if d := describeGroupBound(false, kept, built, cssPruned); d != want[i] {
				t.Fatalf("query %d: memoized %s\ndirect %s", i, want[i], d)
			}
		}
	}
	if survived < 3 {
		t.Fatalf("vacuous: %d queries kept more than one group", survived)
	}

	shared := NewGSig(g)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := &Scratch{}
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(len(qsigs)) {
				qs := qsigs[i]
				lb := CSSLowerBoundUncertainSigScratch(&sc.BP, qs, shared)
				if got := describeGroupBound(GroupBound(sc, qs, shared, lb, tau, alpha, k)); got != want[i] {
					t.Errorf("worker %d query %d: shared %s\nfresh %s", w, i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

// sigView is everything a GSig's bounds read, with the floats as bits, for
// an exact field-by-field comparison.
type sigView struct {
	G                                 *ugraph.Graph
	Counts                            GCounts
	Mass, WorldsF                     uint64
	Flat                              []gsigLabel
	LabelStart, LabelVerts, WildVerts []int32
}

func viewSig(s *GSig) sigView {
	return sigView{s.G, s.GCounts, math.Float64bits(s.Mass), math.Float64bits(s.WorldsF),
		s.flat, s.labelStart, s.labelVerts, s.wildVerts}
}

// TestSplitTreeSignaturesMatchNewGSig expands the whole split tree of random
// and wildcard-heavy graphs, and the tight bound's conditioned signatures,
// and requires every signature built on a parent's shared counts to equal
// NewGSig of its own graph field by field.
func TestSplitTreeSignaturesMatchNewGSig(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	children := 0
	for it := 0; it < 80; it++ {
		var g *ugraph.Graph
		if it%2 == 0 {
			g = randomUncertain(rng, 1+rng.Intn(7), rng.Intn(10), 3)
		} else {
			g = wildHeavyUncertain(rng, 1+rng.Intn(6), rng.Intn(8))
		}
		root := NewGSig(g)
		nodes := []*splitNode{root.splitRoot()}
		for len(nodes) > 0 {
			n := nodes[0]
			nodes = nodes[1:]
			if n.splitV < 0 {
				continue
			}
			l, r := n.children()
			for _, c := range []*splitNode{l, r} {
				if got, want := viewSig(c.gs), viewSig(NewGSig(c.group.G)); !reflect.DeepEqual(got, want) {
					t.Fatalf("#%d: child signature %+v\nNewGSig %+v", it, got, want)
				}
				children++
			}
			nodes = append(nodes, l, r)
		}
		for _, c := range root.conditioned() {
			if got, want := viewSig(c.gs), viewSig(NewGSig(c.gs.G)); !reflect.DeepEqual(got, want) {
				t.Fatalf("#%d: conditioned signature %+v\nNewGSig %+v", it, got, want)
			}
		}
	}
	if children == 0 {
		t.Fatal("vacuous: no graph split")
	}
}
