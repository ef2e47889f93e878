package ugraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"simjoin/internal/graph"
)

// worldRecord is one enumerated world: every vertex's label id and spelling,
// and the probability's bits.
type worldRecord struct {
	ids   string
	names string
	p     uint64
}

// referenceWorlds enumerates g's worlds from scratch, without scratch
// buffers or incremental updates: each choice vector of the mixed-radix
// counter (last vertex fastest) is materialised afresh, and its probability
// is the left-to-right product over every vertex. At most limit worlds.
func referenceWorlds(g *Graph, limit int) []worldRecord {
	n := g.NumVertices()
	choice := make([]int, n)
	var out []worldRecord
	for len(out) < limit {
		ids := make([]graph.LabelID, n)
		names := make([]string, n)
		p := 1.0
		for v := 0; v < n; v++ {
			ids[v] = g.LabelIDs(v)[choice[v]]
			names[v] = g.Labels(v)[choice[v]].Name
			p *= g.Labels(v)[choice[v]].P
		}
		out = append(out, worldRecord{fmt.Sprint(ids), fmt.Sprint(names), math.Float64bits(p)})
		v := n - 1
		for ; v >= 0; v-- {
			if choice[v]++; choice[v] < len(g.Labels(v)) {
				break
			}
			choice[v] = 0
		}
		if v < 0 {
			break
		}
	}
	return out
}

// mixedUncertain builds a random graph whose vertices interleave certain
// ones (one label of probability 1), single-label ones of lower
// probability, and multi-label ones, some with wildcard candidates.
func mixedUncertain(rng *rand.Rand, n int) *Graph {
	names := []string{"A", "B", "C", "D", "?w"}
	g := New(n)
	for v := 0; v < n; v++ {
		switch rng.Intn(3) {
		case 0:
			g.AddVertex(Label{Name: names[rng.Intn(len(names))], P: 1})
		case 1:
			g.AddVertex(Label{Name: names[rng.Intn(len(names))], P: 0.1 + 0.8*rng.Float64()})
		default:
			k := 2 + rng.Intn(3)
			var ls []Label
			for _, i := range rng.Perm(len(names))[:k] {
				ls = append(ls, Label{Name: names[i], P: rng.Float64() / float64(k)})
			}
			g.AddVertex(ls...)
		}
	}
	for t := 0; t < 2*n; t++ {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			_ = g.AddEdge(a, b, "p")
		}
	}
	return g
}

// TestWorldsScratchMatchesReference runs one WorldScratch over a stream of
// random graphs of varying sizes, the empty graph among them, and requires
// each enumeration — to the end or stopped early — to yield exactly the
// reference's worlds in order: label ids, spellings, probability bits, and
// the structure of the graph.
func TestWorldsScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var s WorldScratch
	for it := 0; it < 400; it++ {
		n := rng.Intn(9)
		if it%25 == 0 {
			n = 0
		}
		g := mixedUncertain(rng, n)
		limit := math.MaxInt
		if it%3 == 0 {
			limit = 1 + rng.Intn(20)
		}
		want := referenceWorlds(g, limit)
		var got []worldRecord
		g.WorldsScratch(&s, func(w *graph.Graph, p float64) bool {
			if w.NumVertices() != n || w.NumEdges() != g.NumEdges() {
				t.Fatalf("#%d: world has %d vertices and %d edges, want %d and %d",
					it, w.NumVertices(), w.NumEdges(), n, g.NumEdges())
			}
			got = append(got, worldRecord{fmt.Sprint(w.VertexLabelIDs()), fmt.Sprint(w.VertexLabels()), math.Float64bits(p)})
			return len(got) < limit
		})
		if len(got) != len(want) {
			t.Fatalf("#%d (%v): %d worlds, reference %d", it, g, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("#%d (%v) world %d: %+v, reference %+v", it, g, i, got[i], want[i])
			}
		}
	}
}
