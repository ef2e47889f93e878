package filter

import (
	"testing"

	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

func labelSetOf(ids ...graph.LabelID) *graph.LabelSet {
	var s graph.LabelSet
	for _, id := range ids {
		s.Add(id)
	}
	return &s
}

func TestUnionConcreteLabelsMatchesManualScan(t *testing.T) {
	u := ugraph.New(3)
	u.AddVertex(ugraph.Label{Name: "a", P: 0.6}, ugraph.Label{Name: "b", P: 0.4})
	u.AddVertex(ugraph.Label{Name: "?x", P: 0.7}, ugraph.Label{Name: "c", P: 0.3})
	u.AddVertex(ugraph.Label{Name: "a", P: 1})
	var set graph.LabelSet
	wilds := UnionConcreteLabels(u, &set)
	if wilds != 1 {
		t.Fatalf("wilds = %d, want 1", wilds)
	}
	for _, name := range []string{"a", "b", "c"} {
		if !set.Has(graph.InternLabel(name)) {
			t.Fatalf("union set missing %q", name)
		}
	}
	if set.Len() != 3 {
		t.Fatalf("union set has %d labels, want 3", set.Len())
	}
}

func TestLabelOverlapScreenMatchesDefinition(t *testing.T) {
	// q has labels {a, a, b}; g's union set {a, c} with one wildcard vertex.
	q := graph.New(3)
	q.AddVertex("a")
	q.AddVertex("a")
	q.AddVertex("b")
	qs := NewQSig(q)
	gSet := labelSetOf(graph.InternLabel("a"), graph.InternLabel("c"))

	// overlap = 2 (both "a" vertices) + 1 wildcard g-vertex = 3 = maxV: the
	// pair survives any tau >= 0.
	if !LabelOverlapScreen(qs, gSet, 1, 3, 0) {
		t.Fatalf("pair with full generous overlap pruned at tau=0")
	}
	// Without the wildcard vertex, overlap = 2, maxV = 3: pruned at tau=0,
	// kept at tau=1.
	if LabelOverlapScreen(qs, gSet, 0, 3, 0) {
		t.Fatalf("deficit-1 pair survived tau=0")
	}
	if !LabelOverlapScreen(qs, gSet, 0, 3, 1) {
		t.Fatalf("deficit-1 pair pruned at tau=1")
	}
}
