package workload

// The milestone-scale workload generator.
//
// The ER/SF generators above are sized for functional tests; the candidate
// generation milestone (DESIGN.md §13) needs 10^6 queries against 10^5
// uncertain graphs without drowning the join in either all-misses (random
// labels never match) or all-hits (every pair verifies). Scaled generates both sides from a
// shared pool of templates, so similarity is controlled: a tunable fraction
// of each side are exact template copies (guaranteeing join results), the
// rest are small in-cluster perturbations (guaranteeing near-misses that
// exercise the bound ladder rather than falling to the cheap label screens).
//
// Labels come from a large alphabet partitioned into small clusters; each
// template draws all its labels from one cluster, so the index's label screen
// separates template families while each template's derived graphs stay
// close.

import (
	"fmt"
	"math/rand"

	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// ScaledConfig sizes the milestone workload. All counts are clamped to sane
// minimums by Scaled, so partial configs (e.g. WithScale results) stay valid.
type ScaledConfig struct {
	Seed int64
	// Queries and Uncertain size the two join sides; Templates sizes the
	// shared pool both are derived from.
	Queries, Uncertain, Templates int
	// MinVertices/MaxVertices bound template sizes (uniform draw).
	MinVertices, MaxVertices int
	// ExtraEdges are added per template beyond its spanning path.
	ExtraEdges int
	// LabelAlphabet is the total number of distinct vertex labels;
	// ClusterLabels is the span of the contiguous slice each template draws
	// from. Small clusters inside a large alphabet give the label screen
	// its selectivity.
	LabelAlphabet, ClusterLabels int
	// PerturbEdits counts in-cluster edits applied to non-exact copies.
	PerturbEdits int
	// UncertainVertices/LabelsPerVertex shape the injected uncertainty
	// (as in SyntheticConfig).
	UncertainVertices, LabelsPerVertex int
	// ExactFraction of each side are unperturbed template copies. Exact
	// query copies meeting exact uncertain copies of the same template
	// guarantee the join returns results at any threshold.
	ExactFraction float64
}

// MilestoneScaledConfig is the 10^6 x 10^5 benchmark workload
// (BenchmarkJoinIndexedScaledMilestone at fraction 1).
func MilestoneScaledConfig() ScaledConfig {
	return ScaledConfig{
		Seed:              7,
		Queries:           1_000_000,
		Uncertain:         100_000,
		Templates:         10_000,
		MinVertices:       6,
		MaxVertices:       16,
		ExtraEdges:        2,
		LabelAlphabet:     2000,
		ClusterLabels:     8,
		PerturbEdits:      2,
		UncertainVertices: 3,
		LabelsPerVertex:   2,
		ExactFraction:     0.3,
	}
}

// SmokeScaledConfig is the CI-sized variant: same shape and distributions as
// the milestone, three orders of magnitude smaller.
func SmokeScaledConfig() ScaledConfig {
	cfg := MilestoneScaledConfig()
	cfg.Queries = 1000
	cfg.Uncertain = 100
	cfg.Templates = 20
	cfg.LabelAlphabet = 200
	return cfg
}

// WithScale multiplies the three workload counts by f (minimum 1 each),
// keeping every distribution parameter fixed — the knob the experiments
// runner's -scale flag turns.
func (c ScaledConfig) WithScale(f float64) ScaledConfig {
	if f <= 0 {
		f = 1
	}
	scale := func(n int) int {
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	c.Queries = scale(c.Queries)
	c.Uncertain = scale(c.Uncertain)
	c.Templates = scale(c.Templates)
	return c
}

func scaledLabel(i int) string { return fmt.Sprintf("Z%d", i) }

func (c ScaledConfig) sanitise() ScaledConfig {
	if c.Queries < 1 {
		c.Queries = 1
	}
	if c.Uncertain < 1 {
		c.Uncertain = 1
	}
	if c.Templates < 1 {
		c.Templates = 1
	}
	if c.MinVertices < 2 {
		c.MinVertices = 2
	}
	if c.MaxVertices < c.MinVertices {
		c.MaxVertices = c.MinVertices
	}
	if c.ExtraEdges < 0 {
		c.ExtraEdges = 0
	}
	if c.ClusterLabels < 1 {
		c.ClusterLabels = 1
	}
	if c.LabelAlphabet < c.ClusterLabels {
		c.LabelAlphabet = c.ClusterLabels
	}
	if c.PerturbEdits < 0 {
		c.PerturbEdits = 0
	}
	if c.UncertainVertices < 0 {
		c.UncertainVertices = 0
	}
	if c.LabelsPerVertex < 1 {
		c.LabelsPerVertex = 1
	}
	if c.ExactFraction < 0 {
		c.ExactFraction = 0
	}
	if c.ExactFraction > 1 {
		c.ExactFraction = 1
	}
	return c
}

// Scaled generates the milestone workload: a template pool, then both join
// sides derived from it. Deterministic in the config — the same ScaledConfig
// always yields byte-identical workloads.
func Scaled(cfg ScaledConfig) ([]*graph.Graph, []*ugraph.Graph) {
	cfg = cfg.sanitise()
	// Intern the full alphabet up front in index order, so each template's
	// label cluster occupies consecutive dictionary ids (adjacent bitset
	// words) and the SoA screens stay cache-dense.
	for i := 0; i < cfg.LabelAlphabet; i++ {
		graph.InternLabel(scaledLabel(i))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	templates := make([]*graph.Graph, cfg.Templates)
	clusters := make([]int, cfg.Templates) // cluster base label per template
	for t := range templates {
		clusters[t] = rng.Intn(cfg.LabelAlphabet - cfg.ClusterLabels + 1)
		templates[t] = templateGraph(rng, cfg, clusters[t])
	}

	d := make([]*graph.Graph, cfg.Queries)
	for i := range d {
		t := rng.Intn(cfg.Templates)
		g := templates[t].Clone()
		if rng.Float64() >= cfg.ExactFraction {
			perturbInCluster(rng, g, cfg, clusters[t])
		}
		d[i] = g
	}

	u := make([]*ugraph.Graph, cfg.Uncertain)
	for i := range u {
		t := rng.Intn(cfg.Templates)
		g := templates[t].Clone()
		if rng.Float64() >= cfg.ExactFraction {
			perturbInCluster(rng, g, cfg, clusters[t])
		}
		u[i] = injectClusterUncertainty(rng, g, cfg, clusters[t])
	}
	return d, u
}

// templateGraph builds one template: a spanning path (connected, so perturbed
// copies stay recognisable) plus ExtraEdges chords, all labels drawn from the
// template's cluster.
func templateGraph(rng *rand.Rand, cfg ScaledConfig, cluster int) *graph.Graph {
	n := cfg.MinVertices + rng.Intn(cfg.MaxVertices-cfg.MinVertices+1)
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddVertex(scaledLabel(cluster + rng.Intn(cfg.ClusterLabels)))
	}
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, "e")
	}
	for e := 0; e < cfg.ExtraEdges; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b && !g.HasEdge(a, b) {
			g.MustAddEdge(a, b, "e")
		}
	}
	return g
}

// perturbInCluster applies PerturbEdits edits that stay inside the template's
// label cluster: relabels keep the candidate screens interesting (the edited
// graph still shares most of its label multiset with its template) and edge
// adds nudge the structural bounds.
func perturbInCluster(rng *rand.Rand, g *graph.Graph, cfg ScaledConfig, cluster int) {
	for e := 0; e < cfg.PerturbEdits; e++ {
		v := rng.Intn(g.NumVertices())
		switch rng.Intn(2) {
		case 0:
			g.SetVertexLabel(v, scaledLabel(cluster+rng.Intn(cfg.ClusterLabels)))
		case 1:
			w := rng.Intn(g.NumVertices())
			if v != w && !g.HasEdge(v, w) {
				g.MustAddEdge(v, w, "e")
			}
		}
	}
}

// injectClusterUncertainty converts a certain graph into an uncertain one,
// giving UncertainVertices a label distribution whose alternatives also come
// from the cluster (so a wrong-world label can still match a sibling query).
// The true label keeps the highest confidence, as in injectUncertainty.
func injectClusterUncertainty(rng *rand.Rand, base *graph.Graph, cfg ScaledConfig, cluster int) *ugraph.Graph {
	u := ugraph.New(base.NumVertices())
	uncertain := map[int]bool{}
	for len(uncertain) < cfg.UncertainVertices && len(uncertain) < base.NumVertices() {
		uncertain[rng.Intn(base.NumVertices())] = true
	}
	for v := 0; v < base.NumVertices(); v++ {
		trueLabel := base.VertexLabel(v)
		if !uncertain[v] || cfg.LabelsPerVertex < 2 {
			u.AddVertex(ugraph.Label{Name: trueLabel, P: 1})
			continue
		}
		k := cfg.LabelsPerVertex
		if k > cfg.ClusterLabels {
			k = cfg.ClusterLabels
		}
		if k < 2 {
			u.AddVertex(ugraph.Label{Name: trueLabel, P: 1})
			continue
		}
		confs := zipfConfidences(k)
		labels := []ugraph.Label{{Name: trueLabel, P: confs[0]}}
		seen := map[string]bool{trueLabel: true}
		for len(labels) < k {
			l := scaledLabel(cluster + rng.Intn(cfg.ClusterLabels))
			if seen[l] {
				continue
			}
			seen[l] = true
			labels = append(labels, ugraph.Label{Name: l, P: confs[len(labels)]})
		}
		u.AddVertex(labels...)
	}
	for _, e := range base.Edges() {
		u.MustAddEdge(e.From, e.To, e.Label)
	}
	return u
}
