package workload

// The adversarial workload: a join where every certain-graph baseline bound
// is blind and only the css bound decides pairs.
//
// Every graph on both sides shares one fixed topology (a ring plus
// deterministic chords, every edge labeled "e"), and every uncertain vertex
// carries multiple candidate labels. The certain-graph baseline bounds
// (count, lm, cstar, path-gram, pars, segos) evaluate the query against the
// uncertain graph's certain relaxation (GSig.Relaxed) — which here is all
// wildcards, on a structurally identical graph — so each one computes a lower
// bound of zero and prunes nothing. The css bound reads the candidate label
// sets directly: labels are drawn from per-family disjoint alphabets, so
// cross-family pairs have an empty label matching (λV = 0) and css prunes
// them outright, while same-family pairs survive.
//
// It is the worst case for the baselines: where labels are ambiguous, only
// a bound that reads the candidate labels prunes. Its same-family pairs,
// whose worlds share labels and topology, also exercise the relaxed mapping
// lists (TestRelaxedListsMatchPerWorld in internal/core).
//
// Graph i on either side belongs to family i % Families — a contract the
// workload test relies on.

import (
	"fmt"
	"math/rand"

	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// AdversarialConfig sizes the adversarial workload.
type AdversarialConfig struct {
	Seed int64
	// Queries and Uncertain size the two join sides.
	Queries, Uncertain int
	// Families is the number of disjoint label alphabets. Only same-family
	// pairs (1/Families of the cross product) survive the css bound.
	Families int
	// Vertices is the (identical) vertex count of every graph; Chords is how
	// many deterministic long-range edges are added beyond the ring.
	Vertices, Chords int
	// FamilyLabels is the size of each family's private label alphabet.
	FamilyLabels int
	// LabelsPerVertex is the candidate-label count of every uncertain vertex
	// (≥ 2, so every vertex relaxes to a wildcard).
	LabelsPerVertex int
}

func advLabel(family, i int) string { return fmt.Sprintf("A%d_%d", family, i) }

func (c AdversarialConfig) sanitise() AdversarialConfig {
	if c.Queries < 1 {
		c.Queries = 1
	}
	if c.Uncertain < 1 {
		c.Uncertain = 1
	}
	if c.Families < 1 {
		c.Families = 1
	}
	if c.Vertices < 4 {
		c.Vertices = 4
	}
	if c.Chords < 0 {
		c.Chords = 0
	}
	if c.LabelsPerVertex < 2 {
		c.LabelsPerVertex = 2
	}
	if c.FamilyLabels < c.LabelsPerVertex {
		c.FamilyLabels = c.LabelsPerVertex
	}
	return c
}

// Adversarial generates the workload. Deterministic in the config — the same
// AdversarialConfig always yields byte-identical workloads.
func Adversarial(cfg AdversarialConfig) ([]*graph.Graph, []*ugraph.Graph) {
	cfg = cfg.sanitise()
	rng := rand.New(rand.NewSource(cfg.Seed))

	d := make([]*graph.Graph, cfg.Queries)
	for i := range d {
		d[i] = advQueryGraph(cfg, i%cfg.Families)
	}
	u := make([]*ugraph.Graph, cfg.Uncertain)
	for i := range u {
		u[i] = advUncertainGraph(rng, cfg, i%cfg.Families)
	}
	return d, u
}

// advEdges returns the shared topology: the ring 0–1–…–n−1–0 plus Chords
// deterministic diameter-spanning chords. Identical for every graph of the
// workload, so every structural bound sees a zero edit distance.
func advEdges(cfg AdversarialConfig) [][2]int {
	n := cfg.Vertices
	edges := make([][2]int, 0, n+cfg.Chords)
	for v := 0; v < n; v++ {
		edges = append(edges, [2]int{v, (v + 1) % n})
	}
	has := func(a, b int) bool {
		for _, e := range edges {
			if (e[0] == a && e[1] == b) || (e[0] == b && e[1] == a) {
				return true
			}
		}
		return false
	}
	for c := 0; c < cfg.Chords; c++ {
		a, b := c, (c+n/2)%n
		if a != b && !has(a, b) {
			edges = append(edges, [2]int{a, b})
		}
	}
	return edges
}

// advQueryGraph labels vertex v with its family's anchor label v %
// FamilyLabels. Anchoring guarantees a perfect vertex-label matching (λV =
// |V|) against any same-family uncertain graph — whose candidate sets always
// contain the anchor — so css passes exactly the same-family pairs.
func advQueryGraph(cfg AdversarialConfig, family int) *graph.Graph {
	g := graph.New(cfg.Vertices)
	for v := 0; v < cfg.Vertices; v++ {
		g.AddVertex(advLabel(family, v%cfg.FamilyLabels))
	}
	for _, e := range advEdges(cfg) {
		g.MustAddEdge(e[0], e[1], "e")
	}
	return g
}

func advUncertainGraph(rng *rand.Rand, cfg AdversarialConfig, family int) *ugraph.Graph {
	u := ugraph.New(cfg.Vertices)
	confs := zipfConfidences(cfg.LabelsPerVertex)
	for v := 0; v < cfg.Vertices; v++ {
		// Every vertex is uncertain: the anchor label first (true label,
		// highest confidence — see advQueryGraph), then LabelsPerVertex−1
		// random distinct alternatives from the family alphabet.
		anchor := v % cfg.FamilyLabels
		labels := []ugraph.Label{{Name: advLabel(family, anchor), P: confs[0]}}
		for _, j := range rng.Perm(cfg.FamilyLabels) {
			if len(labels) == cfg.LabelsPerVertex {
				break
			}
			if j != anchor {
				labels = append(labels, ugraph.Label{Name: advLabel(family, j), P: confs[len(labels)]})
			}
		}
		u.AddVertex(labels...)
	}
	for _, e := range advEdges(cfg) {
		u.MustAddEdge(e[0], e[1], "e")
	}
	return u
}
