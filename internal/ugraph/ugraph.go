// Package ugraph implements the paper's uncertain graph model (Def. 2):
// directed graphs whose vertices carry one or more mutually exclusive labels,
// each with an existence probability, and whose edges carry certain labels.
//
// A possible world (Def. 3) materialises one label per vertex; its appearance
// probability is the product of the chosen labels' probabilities. Packages
// filter and core consume the model for pruning and for exact similarity-
// probability verification; conditioning and splitting support the
// possible-world groups of §6.2.
package ugraph

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"simjoin/internal/fault"
	"simjoin/internal/graph"
)

// ProbEpsilon absorbs floating-point drift when validating that per-vertex
// label probabilities sum to at most 1.
const ProbEpsilon = 1e-9

// Label is one possible vertex label with its existence probability.
type Label struct {
	Name string
	P    float64
}

// Graph is an uncertain directed labeled graph. The zero value is an empty
// graph ready to use.
//
// ids mirrors vertices (ids[v][i] == graph.InternLabel(vertices[v][i].Name))
// and edgeIDs mirrors edges, so world materialisation and the filter kernels
// work on dictionary ids without re-interning strings.
type Graph struct {
	vertices [][]Label
	ids      [][]graph.LabelID
	edges    []graph.Edge
	edgeIDs  []graph.LabelID
	out      []map[int]int
}

// New returns an empty uncertain graph with capacity hints for n vertices.
func New(n int) *Graph {
	return &Graph{
		vertices: make([][]Label, 0, n),
		out:      make([]map[int]int, 0, n),
	}
}

// FromCertain lifts a certain graph into the uncertain model: every vertex
// gets its single label with probability 1.
func FromCertain(g *graph.Graph) *Graph {
	u := New(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		u.AddVertex(Label{Name: g.VertexLabel(v), P: 1})
	}
	for _, e := range g.Edges() {
		u.MustAddEdge(e.From, e.To, e.Label)
	}
	return u
}

// AddVertex appends a vertex with the given candidate labels and returns its
// index. Labels are stored in non-increasing probability order.
func (g *Graph) AddVertex(labels ...Label) int {
	ls := append([]Label(nil), labels...)
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].P > ls[j].P })
	ids := make([]graph.LabelID, len(ls))
	for i, l := range ls {
		ids[i] = graph.InternLabel(l.Name)
	}
	g.vertices = append(g.vertices, ls)
	g.ids = append(g.ids, ids)
	g.out = append(g.out, nil)
	return len(g.vertices) - 1
}

// AddEdge inserts a directed certain-labeled edge.
func (g *Graph) AddEdge(u, v int, label string) error {
	return g.addEdgeID(u, v, label, graph.InternLabel(label))
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(u, v int, label string) {
	if err := g.AddEdge(u, v, label); err != nil {
		panic(err)
	}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Size returns |V| + |E|.
func (g *Graph) Size() int { return len(g.vertices) + len(g.edges) }

// Labels returns the candidate labels of vertex v (do not modify).
func (g *Graph) Labels(v int) []Label { return g.vertices[v] }

// LabelIDs returns the dictionary ids of vertex v's candidate labels,
// indexed like Labels (do not modify).
func (g *Graph) LabelIDs(v int) []graph.LabelID { return g.ids[v] }

// Edges returns the edge list (do not modify).
func (g *Graph) Edges() []graph.Edge { return g.edges }

// EdgeLabelIDs returns the per-edge label ids, indexed like Edges (do not
// modify).
func (g *Graph) EdgeLabelIDs() []graph.LabelID { return g.edgeIDs }

// Degrees returns total (in+out) vertex degrees.
func (g *Graph) Degrees() []int {
	d := make([]int, len(g.vertices))
	for _, e := range g.edges {
		d[e.From]++
		d[e.To]++
	}
	return d
}

// DegreeSequence returns total degrees in non-increasing order.
func (g *Graph) DegreeSequence() []int {
	d := g.Degrees()
	sort.Sort(sort.Reverse(sort.IntSlice(d)))
	return d
}

// EdgeLabelMultiset returns the multiset of concrete edge labels and the
// count of wildcard edges.
func (g *Graph) EdgeLabelMultiset() (labels map[string]int, wildcards int) {
	labels = make(map[string]int, len(g.edges))
	for _, e := range g.edges {
		if graph.IsWildcard(e.Label) {
			wildcards++
		} else {
			labels[e.Label]++
		}
	}
	return labels, wildcards
}

// EdgeLabelIDMultiset returns the sorted (id, count) vector of concrete edge
// labels plus the count of wildcard edges — the integer counterpart of
// EdgeLabelMultiset.
func (g *Graph) EdgeLabelIDMultiset() (labels []graph.LabelCount, wildcards int) {
	return graph.CountLabelIDs(append([]graph.LabelID(nil), g.edgeIDs...))
}

// UncertainVertices returns the indices of vertices with more than one
// candidate label.
func (g *Graph) UncertainVertices() []int {
	var out []int
	for v, ls := range g.vertices {
		if len(ls) > 1 {
			out = append(out, v)
		}
	}
	return out
}

// WorldCount returns the number of possible worlds. The boolean is false when
// the count overflows int64 (the float estimate is still returned via
// WorldCountFloat).
func (g *Graph) WorldCount() (int64, bool) {
	n := int64(1)
	for _, ls := range g.vertices {
		if len(ls) == 0 {
			return 0, true
		}
		if n > math.MaxInt64/int64(len(ls)) {
			return 0, false
		}
		n *= int64(len(ls))
	}
	return n, true
}

// WorldCountFloat returns the number of possible worlds as a float64.
func (g *Graph) WorldCountFloat() float64 {
	n := 1.0
	for _, ls := range g.vertices {
		n *= float64(len(ls))
	}
	return n
}

// TotalMass returns the probability mass covered by all possible worlds:
// the product over vertices of the sum of label probabilities. It is 1 when
// every vertex's distribution is complete.
func (g *Graph) TotalMass() float64 {
	mass := 1.0
	for _, ls := range g.vertices {
		s := 0.0
		for _, l := range ls {
			s += l.P
		}
		mass *= s
	}
	return mass
}

// Validate checks structural consistency and the probability axioms of
// Def. 2: every vertex has at least one label, each probability lies in
// (0,1], and per-vertex probabilities sum to at most 1.
func (g *Graph) Validate() error {
	if len(g.out) != len(g.vertices) {
		return fmt.Errorf("ugraph: adjacency length %d != vertex count %d", len(g.out), len(g.vertices))
	}
	if len(g.ids) != len(g.vertices) {
		return fmt.Errorf("ugraph: label id length %d != vertex count %d", len(g.ids), len(g.vertices))
	}
	if len(g.edgeIDs) != len(g.edges) {
		return fmt.Errorf("ugraph: edge id length %d != edge count %d", len(g.edgeIDs), len(g.edges))
	}
	for v, ids := range g.ids {
		if len(ids) != len(g.vertices[v]) {
			return fmt.Errorf("ugraph: vertex %d has %d label ids for %d labels", v, len(ids), len(g.vertices[v]))
		}
		for i, id := range ids {
			if id != graph.InternLabel(g.vertices[v][i].Name) {
				return fmt.Errorf("ugraph: vertex %d label %q has stale id %d", v, g.vertices[v][i].Name, id)
			}
		}
	}
	for v, ls := range g.vertices {
		if len(ls) == 0 {
			return fmt.Errorf("ugraph: vertex %d has no labels", v)
		}
		sum := 0.0
		seen := make(map[string]bool, len(ls))
		for _, l := range ls {
			if l.P <= 0 || l.P > 1+ProbEpsilon {
				return fmt.Errorf("ugraph: vertex %d label %q has probability %v outside (0,1]", v, l.Name, l.P)
			}
			if seen[l.Name] {
				return fmt.Errorf("ugraph: vertex %d has duplicate label %q", v, l.Name)
			}
			seen[l.Name] = true
			sum += l.P
		}
		if sum > 1+ProbEpsilon {
			return fmt.Errorf("ugraph: vertex %d label probabilities sum to %v > 1", v, sum)
		}
	}
	seenE := make(map[[2]int]bool, len(g.edges))
	for i, e := range g.edges {
		if e.From < 0 || e.From >= len(g.vertices) || e.To < 0 || e.To >= len(g.vertices) {
			return fmt.Errorf("ugraph: edge %d endpoints out of range", i)
		}
		k := [2]int{e.From, e.To}
		if seenE[k] {
			return fmt.Errorf("ugraph: duplicate edge (%d,%d)", e.From, e.To)
		}
		seenE[k] = true
	}
	return nil
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(len(g.vertices))
	for v, ls := range g.vertices {
		c.vertices = append(c.vertices, append([]Label(nil), ls...))
		c.ids = append(c.ids, append([]graph.LabelID(nil), g.ids[v]...))
		c.out = append(c.out, nil)
	}
	for i, e := range g.edges {
		if err := c.addEdgeID(e.From, e.To, e.Label, g.edgeIDs[i]); err != nil {
			panic(err)
		}
	}
	return c
}

// addEdgeID is AddEdge with the label id already known.
func (g *Graph) addEdgeID(u, v int, label string, id graph.LabelID) error {
	if u < 0 || u >= len(g.vertices) || v < 0 || v >= len(g.vertices) {
		return fmt.Errorf("ugraph: edge (%d,%d) endpoint out of range [0,%d)", u, v, len(g.vertices))
	}
	if u == v {
		return fmt.Errorf("ugraph: self-loop on vertex %d not supported", u)
	}
	if _, dup := g.out[u][v]; dup {
		return fmt.Errorf("ugraph: duplicate edge (%d,%d)", u, v)
	}
	if g.out[u] == nil {
		g.out[u] = make(map[int]int)
	}
	g.out[u][v] = len(g.edges)
	g.edges = append(g.edges, graph.Edge{From: u, To: v, Label: label})
	g.edgeIDs = append(g.edgeIDs, id)
	return nil
}

// Worlds enumerates every possible world in deterministic order, invoking fn
// with the materialised certain graph and its appearance probability. The
// same *graph.Graph is reused across invocations; clone it to retain it. fn
// must not modify the world: each step rewrites only the vertices whose
// label changed. Enumeration stops early when fn returns false.
func (g *Graph) Worlds(fn func(world *graph.Graph, p float64) bool) {
	var s WorldScratch
	g.WorldsScratch(&s, fn)
}

// WorldScratch holds the reusable buffers of a Worlds enumeration: the
// materialised world graph, the mixed-radix choice counter and the prefix
// products of the chosen labels' probabilities. The zero value is ready to
// use; reusing one scratch across many WorldsScratch calls (e.g. per join
// worker) makes steady-state enumeration allocation-free. A WorldScratch
// must not be shared between goroutines.
type WorldScratch struct {
	w      *graph.Graph
	choice []int
	prefix []float64
}

// WorldsScratch is Worlds reusing caller-provided scratch buffers.
//
// The enumeration is a mixed-radix counter over the vertices' label
// choices, the last vertex fastest. A step rewrites only the vertices the
// counter changed, and a world's probability is the left-to-right product
// of its labels' probabilities, kept as prefix products so that a step
// recomputes only the changed suffix: bit for bit the product over every
// vertex.
//
// The "ugraph.worlds" failpoint fires once per enumeration; since this
// API has no error return, injected errors escalate to panics (contained by
// the join's per-pair quarantine).
func (g *Graph) WorldsScratch(s *WorldScratch, fn func(world *graph.Graph, p float64) bool) {
	fault.MustHit("ugraph.worlds", "")
	n := len(g.vertices)
	if s.w == nil {
		s.w = graph.New(n)
	}
	w := s.w
	w.Reset()
	for v := 0; v < n; v++ {
		w.AddVertexID(g.vertices[v][0].Name, g.ids[v][0])
	}
	for i, e := range g.edges {
		w.MustAddEdgeID(e.From, e.To, e.Label, g.edgeIDs[i])
	}
	if cap(s.prefix) < n+1 {
		s.choice = make([]int, n)
		s.prefix = make([]float64, n+1)
	}
	choice, prefix := s.choice[:n], s.prefix[:n+1]
	clear(choice)
	prefix[0] = 1
	// changed is the first vertex whose choice the last step changed: the
	// prefix products from it on are stale.
	for changed := 0; ; {
		for v := changed; v < n; v++ {
			prefix[v+1] = prefix[v] * g.vertices[v][choice[v]].P
		}
		if !fn(w, prefix[n]) {
			return
		}
		// Advance the mixed-radix counter, relabelling each vertex it moves;
		// a vertex with one label never moves.
		v := n - 1
		for ; v >= 0; v-- {
			ls := g.vertices[v]
			if len(ls) == 1 {
				continue
			}
			c := choice[v] + 1
			if c == len(ls) {
				c = 0
			}
			choice[v] = c
			w.SetVertexLabelID(v, ls[c].Name, g.ids[v][c])
			if c != 0 {
				break
			}
		}
		if v < 0 {
			return
		}
		changed = v
	}
}

// MostLikelyWorld materialises the world choosing the highest-probability
// label at every vertex, together with its appearance probability.
func (g *Graph) MostLikelyWorld() (*graph.Graph, float64) {
	w := graph.New(len(g.vertices))
	p := 1.0
	for v, ls := range g.vertices {
		w.AddVertexID(ls[0].Name, g.ids[v][0])
		p *= ls[0].P
	}
	for i, e := range g.edges {
		w.MustAddEdgeID(e.From, e.To, e.Label, g.edgeIDs[i])
	}
	return w, p
}

// Condition returns a copy of g whose vertex v is restricted to the given
// subset of its label indices. Probabilities remain unnormalised, so the
// possible worlds of the conditioned graph keep their original appearance
// probabilities: they sum to the returned mass rather than 1.
//
// Conditioning only rewrites one vertex's candidate set, so the result
// shares the edge list, adjacency maps and the other vertices' label slices
// with g (full-capacity slicing makes stray appends copy). Neither graph may
// be structurally modified afterwards — all in-repo producers of conditioned
// graphs (possible-world grouping, the total-probability bound) treat them
// as immutable; use Clone for an independent deep copy.
func (g *Graph) Condition(v int, labelIdx []int) (*Graph, float64) {
	n := len(g.vertices)
	c := &Graph{
		vertices: make([][]Label, n),
		ids:      make([][]graph.LabelID, n),
		edges:    g.edges[:len(g.edges):len(g.edges)],
		edgeIDs:  g.edgeIDs[:len(g.edgeIDs):len(g.edgeIDs)],
		out:      g.out[:len(g.out):len(g.out)],
	}
	copy(c.vertices, g.vertices)
	copy(c.ids, g.ids)
	kept := make([]Label, 0, len(labelIdx))
	keptIDs := make([]graph.LabelID, 0, len(labelIdx))
	mass := 0.0
	for _, i := range labelIdx {
		kept = append(kept, g.vertices[v][i])
		keptIDs = append(keptIDs, g.ids[v][i])
		mass += g.vertices[v][i].P
	}
	c.vertices[v] = kept
	c.ids[v] = keptIDs
	return c, mass * g.TotalMass() / sumP(g.vertices[v])
}

func sumP(ls []Label) float64 {
	s := 0.0
	for _, l := range ls {
		s += l.P
	}
	return s
}

// String renders the uncertain graph compactly.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ugraph{|V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	for v, ls := range g.vertices {
		fmt.Fprintf(&b, " v%d:[", v)
		for i, l := range ls {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s:%.2f", l.Name, l.P)
		}
		b.WriteString("]")
	}
	es := append([]graph.Edge(nil), g.edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].From != es[j].From {
			return es[i].From < es[j].From
		}
		return es[i].To < es[j].To
	})
	for _, e := range es {
		fmt.Fprintf(&b, " %d-%s->%d", e.From, e.Label, e.To)
	}
	b.WriteString("}")
	return b.String()
}
