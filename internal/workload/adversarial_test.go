package workload

import (
	"testing"

	"simjoin/internal/filter"
	"simjoin/internal/graph"
)

// TestAdversarialBlindsBaselines pins the property the chain-order tests
// depend on: on the adversarial workload every certain-graph baseline bound
// computes zero (prunes nothing — identical topology, all-wildcard
// relaxation) while the css bound prunes every cross-family pair and passes
// every same-family pair at a small threshold.
func TestAdversarialBlindsBaselines(t *testing.T) {
	cfg := AdversarialConfig{
		Seed:            5,
		Queries:         12,
		Uncertain:       12,
		Families:        3,
		Vertices:        8,
		Chords:          2,
		FamilyLabels:    4,
		LabelsPerVertex: 2,
	}
	d, u := Adversarial(cfg)
	if len(d) != cfg.Queries || len(u) != cfg.Uncertain {
		t.Fatalf("sides sized %d/%d, want %d/%d", len(d), len(u), cfg.Queries, cfg.Uncertain)
	}

	// One shared topology: identical vertex and edge counts everywhere.
	nv, ne := d[0].NumVertices(), d[0].NumEdges()
	for i, g := range d {
		if g.NumVertices() != nv || g.NumEdges() != ne {
			t.Fatalf("d[%d] is %dv/%de, want %dv/%de", i, g.NumVertices(), g.NumEdges(), nv, ne)
		}
	}
	for i, g := range u {
		if g.NumVertices() != nv || g.NumEdges() != ne {
			t.Fatalf("u[%d] is %dv/%de, want %dv/%de", i, g.NumVertices(), g.NumEdges(), nv, ne)
		}
	}

	// Every uncertain vertex carries LabelsPerVertex candidates, so the
	// certain relaxation every baseline bound sees is all wildcards.
	gsigs := make([]*filter.GSig, len(u))
	for i, g := range u {
		gsigs[i] = filter.NewGSig(g)
		for v := 0; v < g.NumVertices(); v++ {
			if got := len(g.Labels(v)); got != cfg.LabelsPerVertex {
				t.Fatalf("u[%d] vertex %d has %d candidate labels, want %d", i, v, got, cfg.LabelsPerVertex)
			}
		}
		relaxed := gsigs[i].Relaxed()
		for v := 0; v < relaxed.NumVertices(); v++ {
			if !graph.IsWildcard(relaxed.VertexLabel(v)) {
				t.Fatalf("u[%d] relaxed vertex %d is %q, want a wildcard", i, v, relaxed.VertexLabel(v))
			}
		}
	}

	baselines := []struct {
		name string
		lb   func(q, g *graph.Graph) int
	}{
		{"count", filter.CountLowerBound},
		{"lm", filter.LMLowerBound},
		{"cstar", filter.CStarLowerBound},
		{"path-gram", filter.PathGramLowerBound},
		{"pars", filter.ParsLowerBound},
		{"segos", func(q, g *graph.Graph) int { return filter.SegosLowerBound(q, g, 0) }},
	}
	const tau = 2
	for qi, q := range d {
		for gi := range u {
			relaxed := gsigs[gi].Relaxed()
			for _, b := range baselines {
				if lb := b.lb(q, relaxed); lb != 0 {
					t.Fatalf("%s(d[%d], relaxed u[%d]) = %d, want 0 (baselines must be blind)", b.name, qi, gi, lb)
				}
			}
			css := filter.CSSLowerBoundUncertain(q, u[gi])
			if qi%cfg.Families != gi%cfg.Families {
				if css <= tau {
					t.Fatalf("css(d[%d], u[%d]) = %d, want > %d (cross-family pair must prune)", qi, gi, css, tau)
				}
			} else if css > tau {
				t.Fatalf("css(d[%d], u[%d]) = %d, want <= %d (same-family pair must survive)", qi, gi, css, tau)
			}
		}
	}
}
