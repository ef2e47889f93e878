package core

import (
	"encoding/binary"

	"simjoin/internal/filter"
	"simjoin/internal/ged"
	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// Shared worlds.
//
// A join worker verifies every candidate of one uncertain graph g before it
// takes the next graph (engine.go), and the world one candidate reports as
// its best is often the best world of others too. worldCache keeps, for the
// graph in hand, one copy of every world a result has reported, so those
// results share it (Pair.World) instead of each holding a clone of its own.
// A world is keyed by itself — the position of each uncertain vertex's label
// among that vertex's labels in g — not by its position in one enumeration,
// so a SimJ+opt kept group (a conditioned copy of g, whose worlds are g's)
// and the sampling and approximate rungs find the same copies as the
// whole-graph enumeration. The cache lets go of the copies when the worker
// verifies a pair of another graph.

// worldCache is a worker's shared worlds of one uncertain graph, plus the
// GED side of the graph's relaxation (the relaxed lists'), prepared once per
// graph with its uncertain vertices restricted to their labels (cands). The
// zero value is ready to use; it must not be shared between goroutines.
type worldCache struct {
	g       *ugraph.Graph
	worlds  map[string]*graph.Graph // the kept copies by key
	key     []byte                  // scratch for a world's key
	relaxed ged.Prepared
	cands   [][]graph.LabelID
}

// keep returns the kept copy of the world of g whose labels are w's,
// cloning w on first use: the world a result reports. w is one of g's
// worlds, typically an enumeration's scratch world, and may change after
// the call; the copy does not, and it is shared read-only by every result of
// g that reports it.
func (c *worldCache) keep(g *ugraph.Graph, w *graph.Graph) *graph.Graph {
	if c.g != g {
		clear(c.worlds)
		c.g = g
	}
	// The key lists, per uncertain vertex, the index of w's label among the
	// vertex's labels: found by dictionary id, and for a wildcard id, which
	// every wildcard spelling shares, also by spelling.
	c.key = c.key[:0]
	wids := w.VertexLabelIDs()
	for v, id := range wids {
		ids := g.LabelIDs(v)
		if len(ids) < 2 {
			continue
		}
		i := 0
		for i < len(ids) && (ids[i] != id || (id == graph.WildcardID && g.Labels(v)[i].Name != w.VertexLabel(v))) {
			i++
		}
		c.key = binary.AppendUvarint(c.key, uint64(i))
	}
	if kept, ok := c.worlds[string(c.key)]; ok {
		return kept
	}
	kept := w.Clone()
	if c.worlds == nil {
		c.worlds = make(map[string]*graph.Graph)
	}
	c.worlds[string(c.key)] = kept
	return kept
}

// relaxedSide returns the GED side of the relaxation of gs's graph
// (GSig.Relaxed, built once per signature), prepared once per graph, each
// wildcard restricted to the vertex's labels in the graph: ĝ_L of
// relaxed.go.
func (c *worldCache) relaxedSide(gs *filter.GSig) *ged.Prepared {
	if r := gs.Relaxed(); c.relaxed.Graph() != r {
		c.relaxed.Reset(r)
		c.cands = c.cands[:0]
		for v := 0; v < gs.NumV; v++ {
			c.cands = append(c.cands, gs.G.LabelIDs(v))
		}
		c.relaxed.Restrict(c.cands)
	}
	return &c.relaxed
}
