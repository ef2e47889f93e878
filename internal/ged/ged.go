// Package ged computes the minimum graph edit distance (GED) between certain
// labeled graphs, the similarity measure at the heart of the paper (§3.1.2).
//
// The edit model follows the paper exactly: six primitive operations, each of
// cost 1 — insert/delete an isolated labeled vertex, insert/delete an edge,
// and substitute a vertex or edge label. Wildcard labels ('?'-prefixed) match
// any label at zero substitution cost.
//
// Computing GED is NP-hard; the implementation is the standard A* search over
// partial vertex mappings with an admissible label-multiset heuristic
// (cf. Riesen et al. [17] and Zhao et al. [31]). A threshold-bounded variant
// prunes every state whose optimistic cost exceeds τ, which is what the SimJ
// verification phase uses.
//
// ComputeAll runs the same search in an all-solutions mode: it keeps popping
// past the first goal and reports every complete mapping within τ, cheapest
// first. A join verifies a pair of a many-world uncertain graph with one
// ComputeAll against the graph's relaxation (uncertain vertices as
// wildcards) and scores the possible worlds against the mappings it finds;
// Compute runs once per world everywhere else: on a pair's first world, on
// graphs with few worlds, and where the all-solutions search cannot finish.
//
// A wildcard vertex of a prepared graph may be restricted to candidate
// labels (Prepared.Restrict): the labels the vertex stands for, such as an
// uncertain vertex's labels in the relaxation. A concrete label then meets
// it at no cost only when it is one of the candidates, and costs one
// substitution otherwise; a wildcard meets it at no cost. The heuristic
// still counts every wildcard as matching anything, which only lowers it,
// so it stays admissible.
//
// A search's set-up has a per-graph half — label ids, a dense adjacency
// matrix, CSR incidence lists and a degree order — that Prepare builds once
// per graph; ComputePrepared and ComputeAllPrepared search between two
// prepared graphs and do only the per-pair half. Compute and ComputeAll
// prepare both graphs into the searcher's own scratch and run the same
// search.
//
// The search is allocation-lean: searchers are pooled (sync.Pool), states
// come from a per-searcher chunk arena and carry one assignment plus a parent
// pointer instead of a mapping copy, and the heuristic counts label
// multisets in reusable slices over search-local label ids, assigned through
// a dense array keyed by dictionary id instead of a map.
package ged

import (
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"sync"

	"simjoin/internal/fault"
	"simjoin/internal/graph"
)

// ErrBudget is returned when the search exceeds the configured state budget.
var ErrBudget = errors.New("ged: state budget exhausted")

// ErrTooManyMappings is returned by ComputeAll when more than MaxMappings
// complete mappings lie within the threshold.
var ErrTooManyMappings = errors.New("ged: mapping cap exceeded")

// MaxMappings caps the mappings one ComputeAll reports.
const MaxMappings = 1024

// NoThreshold disables threshold pruning when passed as τ.
const NoThreshold = int(^uint(0) >> 1)

// Mapping records a vertex correspondence from the first argument graph to
// the second: Mapping[u] is the image of u, or Deleted if u was deleted.
type Mapping []int

// Deleted marks a vertex with no image under a Mapping.
const Deleted = -1

// Options tunes the search.
type Options struct {
	// Threshold prunes all search states whose lower-bounded total cost
	// exceeds it. Use NoThreshold (the zero Options value is NOT usable;
	// call Distance/WithinThreshold helpers instead) for exact search.
	Threshold int
	// MaxStates caps the number of expanded states; 0 means unlimited.
	// When exceeded, Compute returns ErrBudget.
	MaxStates int
}

// Result is the outcome of a GED computation.
type Result struct {
	// Distance is the minimum edit distance, valid when Exceeded is false.
	Distance int
	// Exceeded is true when the distance is known to be > Options.Threshold;
	// Distance then holds the threshold-exceeding lower bound reached.
	Exceeded bool
	// Mapping maps vertices of the first argument to the second.
	Mapping Mapping
	// States is the number of A* states expanded (diagnostics).
	States int
}

// Distance returns the exact graph edit distance between g1 and g2.
func Distance(g1, g2 *graph.Graph) int {
	r, err := Compute(g1, g2, Options{Threshold: NoThreshold})
	if err != nil {
		panic(err) // unreachable: no budget configured
	}
	return r.Distance
}

// DistanceMapping returns the exact distance together with an optimal vertex
// mapping from g1 to g2.
func DistanceMapping(g1, g2 *graph.Graph) (int, Mapping) {
	r, err := Compute(g1, g2, Options{Threshold: NoThreshold})
	if err != nil {
		panic(err)
	}
	return r.Distance, r.Mapping
}

// WithinThreshold reports whether ged(g1,g2) ≤ tau, returning the exact
// distance when it is.
func WithinThreshold(g1, g2 *graph.Graph, tau int) (int, bool) {
	if tau < 0 {
		return 0, false
	}
	r, err := Compute(g1, g2, Options{Threshold: tau})
	if err != nil {
		panic(err)
	}
	return r.Distance, !r.Exceeded
}

// stateChunkSize is the state arena's chunk size: it amortises allocation to
// one per few hundred generated states.
const stateChunkSize = 256

// Prepared is one graph made ready for GED searches: the per-graph half of a
// search's set-up, built once so that any number of searches against the
// graph skip it (ComputePrepared, ComputeAllPrepared). Either graph of a
// search may turn out the smaller one, so both roles' structures are built:
// the degree order the smaller graph is mapped in, and the incidence lists
// the larger one's heuristic walks. A Prepared is read-only once Reset
// returns, so concurrent searches may share it; it refers to its graph's
// label and edge slices, so the graph must not change while prepared.
type Prepared struct {
	g     *graph.Graph
	n     int
	vids  []graph.LabelID // per-vertex dictionary label ids
	eids  []graph.LabelID // per-edge dictionary label ids, parallel to edges
	edges []graph.Edge

	// adj is the dense adjacency matrix (edge index + 1, 0 = absent),
	// flattened row-major over the ≤64-vertex graphs. It replaces the
	// EdgeIndex map lookups in the innermost search loop.
	adj []int32

	// CSR incidence lists of the edges per vertex (self-loops once); the
	// successor heuristic walks only the edges touching the newly used
	// vertex of the larger graph instead of rescanning the whole edge list.
	incStart []int32
	incEdge  []int32

	// order is the processing order of the vertices when this is the smaller
	// graph, high degree first; mask[k] is the bitmask of order[:k].
	order []int
	mask  []uint64

	// cands restricts wildcard vertices to candidate labels (Restrict); nil
	// leaves every wildcard matching anything.
	cands [][]graph.LabelID
}

// Prepare returns g prepared for GED searches.
func Prepare(g *graph.Graph) *Prepared {
	p := new(Prepared)
	p.Reset(g)
	return p
}

// Graph returns the prepared graph.
func (p *Prepared) Graph() *graph.Graph { return p.g }

// Reset prepares p for g, reusing p's buffers: once they have grown to g's
// size, preparing allocates nothing. It drops any candidate restriction.
func (p *Prepared) Reset(g *graph.Graph) {
	p.g, p.n, p.cands = g, g.NumVertices(), nil
	p.vids, p.eids, p.edges = g.VertexLabelIDs(), g.EdgeLabelIDs(), g.Edges()
	n := p.n

	p.adj = growInt32s(p.adj, n*n)
	clear(p.adj)
	for i, e := range p.edges {
		p.adj[e.From*n+e.To] = int32(i + 1)
	}

	p.incStart = growInt32s(p.incStart, n+1)
	clear(p.incStart)
	for _, e := range p.edges {
		p.incStart[e.From]++
		if e.To != e.From {
			p.incStart[e.To]++
		}
	}
	total := int32(0)
	for v := 0; v < n; v++ {
		c := p.incStart[v]
		p.incStart[v] = total
		total += c
	}
	p.incStart[n] = total
	p.incEdge = growInt32s(p.incEdge, int(total))
	// Fill with the starts themselves as cursors: after filling, each start
	// has advanced to the next vertex's start, so one backward shift restores
	// the offsets.
	for i, e := range p.edges {
		p.incEdge[p.incStart[e.From]] = int32(i)
		p.incStart[e.From]++
		if e.To != e.From {
			p.incEdge[p.incStart[e.To]] = int32(i)
			p.incStart[e.To]++
		}
	}
	for v := n; v > 0; v-- {
		p.incStart[v] = p.incStart[v-1]
	}
	p.incStart[0] = 0

	// High-degree vertices first: they constrain the most edges and tighten
	// costs early. A graph has no self-loops, so a vertex's incidence list
	// length is its total degree. The insertion sort is stable: ties keep
	// vertex order.
	deg := func(v int) int32 { return p.incStart[v+1] - p.incStart[v] }
	p.order = growInts(p.order, n)
	for i := range p.order {
		p.order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && deg(p.order[j]) > deg(p.order[j-1]); j-- {
			p.order[j], p.order[j-1] = p.order[j-1], p.order[j]
		}
	}
	p.mask = growMasks(p.mask, n+1)
	p.mask[0] = 0
	for k := 1; k <= n; k++ {
		p.mask[k] = p.mask[k-1] | 1<<uint(p.order[k-1])
	}
}

// Restrict attaches candidate labels to p's wildcard vertices: cands has
// one list per vertex, and cands[v] holds the dictionary ids of the labels
// vertex v stands for, so that a concrete label meets v at no cost only
// when it is one of them. A nil list, or one holding graph.WildcardID,
// leaves v matching anything, and a vertex with a concrete label ignores
// its list. cands is kept, not copied: like the graph, it must not change
// while p is prepared. Reset drops it.
func (p *Prepared) Restrict(cands [][]graph.LabelID) { p.cands = cands }

// release drops p's references to its graph, keeping the buffers.
func (p *Prepared) release() {
	p.g, p.vids, p.eids, p.edges, p.cands = nil, nil, nil, nil, nil
}

// searcher holds the inputs and all reusable scratch of one A* run. The
// smaller graph (by vertex count) is always mapped onto the larger one;
// swapped indicates the caller's arguments were reversed. Searchers are
// recycled through searcherPool; every slice below retains capacity across
// runs.
type searcher struct {
	a, b    *Prepared // |V(a)| <= |V(b)|
	swapped bool
	opts    Options

	// own holds the two graphs of a Compute or ComputeAll call, prepared
	// into the searcher's scratch.
	own [2]Prepared

	// The prepared sides' structures the search reads, copied out of a and
	// b by setup: a's processing order and its processed-prefix bitmasks,
	// both adjacency matrices and edge lists, and b's incidence lists.
	order         []int
	processedMask []uint64
	nA, nB        int
	adjA, adjB    []int32
	aEdges        []graph.Edge
	bEdges        []graph.Edge
	bIncStart     []int32
	bIncEdge      []int32

	// Search-local label ids: id 0 is reserved for wildcards. Vertex and
	// edge labels share one dense id space so the heuristic's count slices
	// stay small. local maps a dictionary id (graph.LabelID) to its local
	// id, 0 when unassigned; it is all zero between searches.
	local            []int32
	vLabelA, vLabelB []int
	eLabA, eLabB     []int // per-edge label ids, parallel to the edge lists
	nLabels          int

	// matchA[u] is the bitmask of b-vertices that a-vertex u meets without
	// a candidate miss, and matchB[v] that of a-vertices b-vertex v meets:
	// every vertex, unless the vertex is a wildcard restricted to candidate
	// labels (Prepared.Restrict). extensionCost charges a substitution when
	// either mask lacks the other vertex.
	matchA, matchB []uint64

	// Heuristic multiset scratch, indexed by label id. prepareExpand fills
	// these once per expanded state; successorHeuristic applies O(deg)
	// deltas against them (temporarily mutating and restoring eCntB).
	vCntA, vCntB, eCntA, eCntB []int32

	// Base aggregates of the heuristic at (k+1, cur.used), computed once per
	// expansion by prepareExpand. baseMinV/baseMinE are the wildcard-free
	// Σ min(cntA, cntB) sums.
	baseRemA, baseWildA, baseEA, baseEAWild int
	baseRemB, baseWildB, baseEB, baseEBWild int
	baseMinV, baseMinE                      int

	// curMap is the mapping of the state being expanded, rebuilt from its
	// parent chain once per expansion (only the processed prefix is valid);
	// outMap is the mapping ComputeAll reports a goal with.
	curMap, outMap []int

	// Chunk arena for states.
	stChunks [][]state
	stIdx    int
	stUsed   int

	pq       stateHeap
	expanded int
}

var searcherPool = sync.Pool{
	New: func() interface{} { return new(searcher) },
}

// state is one partial mapping: the first k a-vertices in processing order
// are assigned. It stores only the last assignment, order[k-1] -> v, and
// reaches the others through parent.
type state struct {
	k      int    // number of a-vertices processed (in order)
	used   uint64 // bitmask of b-vertices consumed
	g      int    // accumulated cost
	f      int    // g + heuristic
	v      int    // image of order[k-1]: a b-vertex or Deleted
	parent *state // nil at the root
}

type stateHeap []*state

func (h stateHeap) Len() int { return len(h) }
func (h stateHeap) Less(i, j int) bool {
	if h[i].f != h[j].f {
		return h[i].f < h[j].f
	}
	return h[i].k > h[j].k // prefer deeper states to reach goals sooner
}
func (h stateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *stateHeap) Push(x interface{}) { *h = append(*h, x.(*state)) }
func (h *stateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return s
}

// Compute runs the A* search with the given options.
//
// The "ged.compute" failpoint fires at entry: error- and budget-kind
// injections surface as the returned error (callers already treat any
// Compute error as a budget exhaustion), panics propagate to the caller's
// containment layer.
func Compute(g1, g2 *graph.Graph, opts Options) (Result, error) {
	if err := fault.Hit("ged.compute", ""); err != nil {
		return Result{}, err
	}
	if err := checkSize(g1.NumVertices(), g2.NumVertices()); err != nil {
		return Result{}, err
	}
	s := searcherPool.Get().(*searcher)
	defer s.release()
	s.own[0].Reset(g1)
	s.own[1].Reset(g2)
	return s.compute(&s.own[0], &s.own[1], opts, nil)
}

// ComputePrepared is Compute between two prepared graphs: the same search,
// the same result and the same failpoint, without the per-graph set-up. A
// goal's mapping is written into m, which is grown when it is too short,
// and returned as Result.Mapping: a caller that passes the same buffer
// again overwrites the last mapping. A search whose buffer is long enough
// allocates nothing.
func ComputePrepared(g1, g2 *Prepared, opts Options, m Mapping) (Result, error) {
	if err := fault.Hit("ged.compute", ""); err != nil {
		return Result{}, err
	}
	if err := checkSize(g1.n, g2.n); err != nil {
		return Result{}, err
	}
	s := searcherPool.Get().(*searcher)
	defer s.release()
	return s.compute(g1, g2, opts, m)
}

// compute runs one thresholded search of g1 against g2 to its first goal,
// writing the goal's mapping into m (a new mapping when m is nil).
func (s *searcher) compute(g1, g2 *Prepared, opts Options, m Mapping) (Result, error) {
	s.setup(g1, g2, opts)
	goal, cost, err := s.next()
	if err != nil {
		return Result{States: s.expanded}, err
	}
	if goal == nil {
		if opts.Threshold == NoThreshold {
			return Result{}, errors.New("ged: search space exhausted without a goal (internal error)")
		}
		return Result{Distance: opts.Threshold + 1, Exceeded: true, States: s.expanded}, nil
	}
	if n := g1.n; m == nil || cap(m) < n {
		m = make(Mapping, n)
	} else {
		m = m[:n]
	}
	s.goalMapping(goal, m)
	return Result{Distance: cost, Mapping: m, States: s.expanded}, nil
}

// ComputeAll is the all-solutions mode of Compute: it calls fn with every
// complete mapping from g1 to g2 whose edit cost is at most opts.Threshold,
// each once, in non-decreasing cost order; m is valid only during the call.
// It expands every state any thresholded Compute between the same graphs
// could expand, and more: after the first goal it keeps popping until every
// remaining state exceeds the threshold. It returns the states expanded, and
// fails like Compute on the "ged.compute" failpoint and opts.MaxStates, and
// with ErrTooManyMappings when more than MaxMappings mappings are within the
// threshold (the first MaxMappings have then been reported).
func ComputeAll(g1, g2 *graph.Graph, opts Options, fn func(m Mapping, cost int)) (int, error) {
	if err := fault.Hit("ged.compute", ""); err != nil {
		return 0, err
	}
	if err := checkSize(g1.NumVertices(), g2.NumVertices()); err != nil {
		return 0, err
	}
	s := searcherPool.Get().(*searcher)
	defer s.release()
	s.own[0].Reset(g1)
	s.own[1].Reset(g2)
	return s.computeAll(&s.own[0], &s.own[1], opts, fn)
}

// ComputeAllPrepared is ComputeAll between two prepared graphs.
func ComputeAllPrepared(g1, g2 *Prepared, opts Options, fn func(m Mapping, cost int)) (int, error) {
	if err := fault.Hit("ged.compute", ""); err != nil {
		return 0, err
	}
	if err := checkSize(g1.n, g2.n); err != nil {
		return 0, err
	}
	s := searcherPool.Get().(*searcher)
	defer s.release()
	return s.computeAll(g1, g2, opts, fn)
}

// computeAll runs the all-solutions search of g1 against g2.
func (s *searcher) computeAll(g1, g2 *Prepared, opts Options, fn func(m Mapping, cost int)) (int, error) {
	s.setup(g1, g2, opts)
	for found := 0; ; found++ {
		goal, cost, err := s.next()
		if err != nil || goal == nil {
			return s.expanded, err
		}
		if found == MaxMappings {
			return s.expanded, ErrTooManyMappings
		}
		s.outMap = growInts(s.outMap, g1.n)
		s.goalMapping(goal, s.outMap)
		fn(s.outMap, cost)
	}
}

// checkSize rejects graphs beyond the search's 64-vertex bitmasks.
func checkSize(n1, n2 int) error {
	if n1 > 64 || n2 > 64 {
		return fmt.Errorf("ged: graphs larger than 64 vertices unsupported (got %d, %d)", n1, n2)
	}
	return nil
}

// setup prepares the searcher for one search of g1 against g2 — the
// per-pair half of the set-up: orienting the pair, interning both graphs'
// labels into search-local ids, and seeding the queue with the root state.
func (s *searcher) setup(g1, g2 *Prepared, opts Options) {
	s.a, s.b, s.swapped, s.opts = g1, g2, false, opts
	if g1.n > g2.n {
		s.a, s.b = g2, g1
		s.swapped = true
	}
	a, b := s.a, s.b
	s.nA, s.nB = a.n, b.n
	s.order, s.processedMask = a.order, a.mask
	s.adjA, s.adjB = a.adj, b.adj
	s.aEdges, s.bEdges = a.edges, b.edges
	s.bIncStart, s.bIncEdge = b.incStart, b.incEdge
	s.stIdx, s.stUsed = 0, 0
	s.intern()
	s.curMap = growInts(s.curMap, s.nA)
	start := s.newState()
	*start = state{v: Deleted, f: s.heuristic(0, 0)}
	s.pq = append(s.pq[:0], start)
	s.expanded = 0
}

func (s *searcher) release() {
	s.a, s.b = nil, nil
	s.own[0].release()
	s.own[1].release()
	s.aEdges, s.bEdges = nil, nil
	s.opts = Options{}
	searcherPool.Put(s)
}

// goalMapping writes a goal state's assignments into m, one image per
// vertex of g1, in the caller's direction (g1 -> g2), inverting when the
// graphs were swapped.
func (s *searcher) goalMapping(goal *state, m []int) {
	for i := range m {
		m[i] = Deleted
	}
	for st := goal; st.k > 0; st = st.parent {
		u, v := s.order[st.k-1], st.v
		if !s.swapped {
			m[u] = v
		} else if v != Deleted {
			m[v] = u
		}
	}
}

// growInts returns s resized to n, reusing capacity when possible. Contents
// are unspecified; callers overwrite every element.
func growInts(s []int, n int) []int {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]int, n)
}

func growInt32s(s []int32, n int) []int32 {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]int32, n)
}

func growMasks(s []uint64, n int) []uint64 {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]uint64, n)
}

// intern assigns dense search-local ids to every vertex and edge label of
// both graphs (wildcards collapse to id 0), maps the restricted vertices'
// candidates to local ids (matchA, matchB), and sizes the heuristic count
// slices. The graphs' dictionary ids index the local array, so no string or
// map is touched; the array is zeroed again before returning.
func (s *searcher) intern() {
	a, b := s.a, s.b
	s.nLabels = 1
	s.vLabelA = s.localIDs(s.vLabelA, a.vids)
	s.vLabelB = s.localIDs(s.vLabelB, b.vids)
	s.eLabA = s.localIDs(s.eLabA, a.eids)
	s.eLabB = s.localIDs(s.eLabB, b.eids)
	s.matchA = s.candidateMasks(s.matchA, a, s.vLabelA, s.vLabelB)
	s.matchB = s.candidateMasks(s.matchB, b, s.vLabelB, s.vLabelA)
	for _, ids := range [4][]graph.LabelID{a.vids, b.vids, a.eids, b.eids} {
		for _, gid := range ids {
			if gid != graph.WildcardID {
				s.local[gid] = 0
			}
		}
	}
	s.vCntA = growInt32s(s.vCntA, s.nLabels)
	s.vCntB = growInt32s(s.vCntB, s.nLabels)
	s.eCntA = growInt32s(s.eCntA, s.nLabels)
	s.eCntB = growInt32s(s.eCntB, s.nLabels)
}

// localIDs fills dst with the local ids of the dictionary ids gids,
// assigning the next free id to each label on first sight.
func (s *searcher) localIDs(dst []int, gids []graph.LabelID) []int {
	dst = growInts(dst, len(gids))
	for i, gid := range gids {
		if gid == graph.WildcardID {
			dst[i] = 0
			continue
		}
		if int(gid) >= len(s.local) {
			grown := make([]int32, max(int(gid)+1, 2*len(s.local)))
			copy(grown, s.local)
			s.local = grown
		}
		id := s.local[gid]
		if id == 0 {
			id = int32(s.nLabels)
			s.nLabels++
			s.local[gid] = id
		}
		dst[i] = int(id)
	}
	return dst
}

// candidateMasks fills dst with one mask per vertex of p: the vertices of
// the other graph, whose local label ids are other, that the vertex meets
// without a candidate miss. That is every vertex, unless the vertex is a
// wildcard (own label id 0) restricted to candidates; then it is the other
// graph's wildcards and the vertices whose label is a candidate. A
// candidate that occurs in neither graph has no local id and matches no
// vertex. It runs while the local array still holds both graphs' ids.
func (s *searcher) candidateMasks(dst []uint64, p *Prepared, own, other []int) []uint64 {
	dst = growMasks(dst, p.n)
	for v := range dst {
		dst[v] = ^uint64(0)
		if p.cands == nil || own[v] != 0 || p.cands[v] == nil || slices.Contains(p.cands[v], graph.WildcardID) {
			continue
		}
		var m uint64
		for w, l := range other {
			if l == 0 || s.isCandidate(l, p.cands[v]) {
				m |= 1 << uint(w)
			}
		}
		dst[v] = m
	}
	return dst
}

// isCandidate reports whether the local label id l is one of the concrete
// dictionary ids cands.
func (s *searcher) isCandidate(l int, cands []graph.LabelID) bool {
	for _, c := range cands {
		if int(c) < len(s.local) && int(s.local[c]) == l {
			return true
		}
	}
	return false
}

// newState hands out a state from the state arena; callers overwrite it.
func (s *searcher) newState() *state {
	if s.stIdx < len(s.stChunks) && s.stUsed >= len(s.stChunks[s.stIdx]) {
		s.stIdx++
		s.stUsed = 0
	}
	if s.stIdx >= len(s.stChunks) {
		s.stChunks = append(s.stChunks, make([]state, stateChunkSize))
		s.stUsed = 0
	}
	st := &s.stChunks[s.stIdx][s.stUsed]
	s.stUsed++
	return st
}

// next resumes the search and returns the next goal whose total cost is
// within the threshold, with that cost; nil when none remains. Goals come out
// in non-decreasing cost: states pop by f = g + h with an admissible h, and a
// goal's h is exactly its completion cost.
func (s *searcher) next() (*state, int, error) {
	for s.pq.Len() > 0 {
		cur := heap.Pop(&s.pq).(*state)
		if s.opts.Threshold != NoThreshold && cur.f > s.opts.Threshold {
			s.pq = s.pq[:0] // all remaining states exceed τ as well
			return nil, 0, nil
		}
		if cur.k == s.nA {
			total := cur.g + s.completionCost(cur)
			if s.opts.Threshold != NoThreshold && total > s.opts.Threshold {
				continue
			}
			return cur, total, nil
		}
		s.expanded++
		if s.opts.MaxStates > 0 && s.expanded > s.opts.MaxStates {
			return nil, 0, ErrBudget
		}
		s.expand(cur)
	}
	return nil, 0, nil
}

// expand pushes cur's successors: its next a-vertex mapped to each unused
// b-vertex, or deleted. All successors share the heuristic's (k+1, cur.used)
// base aggregates; push applies only the per-successor delta. cur's mapping
// is rebuilt into curMap once here for extensionCost.
func (s *searcher) expand(cur *state) {
	for st := cur; st.k > 0; st = st.parent {
		s.curMap[s.order[st.k-1]] = st.v
	}
	u := s.order[cur.k]
	s.prepareExpand(cur)
	for v := 0; v < s.nB; v++ {
		if cur.used&(1<<uint(v)) != 0 {
			continue
		}
		s.push(cur, u, v)
	}
	s.push(cur, u, Deleted)
}

// push extends cur by assigning a-vertex u to b-vertex v (or Deleted) and
// enqueues the successor unless it is already over threshold. The heuristic
// is evaluated before touching the arena so pruned successors cost nothing;
// it is the delta form over prepareExpand's base aggregates and equals
// heuristic(cur.k+1, used) exactly.
func (s *searcher) push(cur *state, u, v int) {
	cost := cur.g + s.extensionCost(cur, u, v)
	used := cur.used
	if v != Deleted {
		used |= 1 << uint(v)
	}
	f := cost + s.successorHeuristic(cur.used, v)
	if s.opts.Threshold != NoThreshold && f > s.opts.Threshold {
		return
	}
	next := s.newState()
	*next = state{k: cur.k + 1, used: used, g: cost, f: f, v: v, parent: cur}
	heap.Push(&s.pq, next)
}

// extensionCost is the exact cost added by assigning u -> v given the already
// mapped prefix (cur's assignments, in curMap): the vertex operation plus all
// edge operations between u and previously processed vertices.
func (s *searcher) extensionCost(cur *state, u, v int) int {
	cost := 0
	if v == Deleted {
		cost++ // delete u
	} else if la, lb := s.vLabelA[u], s.vLabelB[v]; la != lb && la != 0 && lb != 0 {
		cost++ // substitute label (0 is the wildcard id: matches anything)
	} else if s.matchA[u]>>uint(v)&(s.matchB[v]>>uint(u))&1 == 0 {
		cost++ // a concrete label outside a restricted wildcard's candidates
	}
	for k := 0; k < cur.k; k++ {
		p := s.order[k]
		w := s.curMap[p]
		cost += s.edgePairCost(u, p, v, w)
		cost += s.edgePairCost(p, u, w, v)
	}
	return cost
}

// edgePairCost compares the directed a-edge (x->y) with the directed b-edge
// (ix->iy), where ix/iy may be Deleted. Adjacency is probed through the dense
// matrices (edge index + 1, 0 = absent) rather than the graphs' maps.
func (s *searcher) edgePairCost(x, y, ix, iy int) int {
	ai := s.adjA[x*s.nA+y]
	if ix == Deleted || iy == Deleted {
		if ai != 0 {
			return 1 // the a-edge must be deleted
		}
		return 0
	}
	bi := s.adjB[ix*s.nB+iy]
	switch {
	case ai != 0 && bi != 0:
		if la, lb := s.eLabA[ai-1], s.eLabB[bi-1]; la == lb || la == 0 || lb == 0 {
			return 0
		}
		return 1 // substitute edge label
	case (ai != 0) != (bi != 0):
		return 1 // insert or delete one edge
	default:
		return 0
	}
}

// completionCost inserts every unused b-vertex and every b-edge not fully
// inside the image of the mapping.
func (s *searcher) completionCost(cur *state) int {
	cost := 0
	for v := 0; v < s.nB; v++ {
		if cur.used&(1<<uint(v)) == 0 {
			cost++
		}
	}
	for _, e := range s.bEdges {
		if cur.used&(1<<uint(e.From)) == 0 || cur.used&(1<<uint(e.To)) == 0 {
			cost++
		}
	}
	return cost
}

// heuristic is an admissible lower bound on the remaining cost of a state
// with k processed a-vertices and the given used-b mask: a vertex term and an
// edge term, each of the form max(r1, r2) − (upper bound on matchable pairs).
// Overestimating the matchable pairs keeps the bound admissible. All counting
// happens in the searcher's id-indexed scratch slices; no allocation.
func (s *searcher) heuristic(k int, used uint64) int {
	vCntA, vCntB := s.vCntA, s.vCntB
	eCntA, eCntB := s.eCntA, s.eCntB
	for i := range vCntA {
		vCntA[i] = 0
	}
	for i := range vCntB {
		vCntB[i] = 0
	}
	for i := range eCntA {
		eCntA[i] = 0
	}
	for i := range eCntB {
		eCntB[i] = 0
	}

	// Remaining a-vertices and their label counts.
	remA := s.nA - k
	wildA := 0
	for i := k; i < len(s.order); i++ {
		if id := s.vLabelA[s.order[i]]; id == 0 {
			wildA++
		} else {
			vCntA[id]++
		}
	}
	// Unused b-vertices and their label counts.
	remB, wildB := 0, 0
	for v := 0; v < s.nB; v++ {
		if used&(1<<uint(v)) != 0 {
			continue
		}
		remB++
		if id := s.vLabelB[v]; id == 0 {
			wildB++
		} else {
			vCntB[id]++
		}
	}
	common := wildA + wildB
	for id := 1; id < s.nLabels; id++ {
		if ca, cb := vCntA[id], vCntB[id]; cb < ca {
			common += int(cb)
		} else {
			common += int(ca)
		}
	}
	if common > remA {
		common = remA
	}
	if common > remB {
		common = remB
	}
	hv := remA
	if remB > hv {
		hv = remB
	}
	hv -= common

	// Edge term: edges with at least one unprocessed/unused endpoint.
	pm := s.processedMask[k]
	eA, eAWild := 0, 0
	for i, e := range s.aEdges {
		if pm&(1<<uint(e.From)) != 0 && pm&(1<<uint(e.To)) != 0 {
			continue
		}
		eA++
		if id := s.eLabA[i]; id == 0 {
			eAWild++
		} else {
			eCntA[id]++
		}
	}
	eB, eBWild := 0, 0
	for i, e := range s.bEdges {
		if used&(1<<uint(e.From)) != 0 && used&(1<<uint(e.To)) != 0 {
			continue
		}
		eB++
		if id := s.eLabB[i]; id == 0 {
			eBWild++
		} else {
			eCntB[id]++
		}
	}
	ecommon := eAWild + eBWild
	for id := 1; id < s.nLabels; id++ {
		if ca, cb := eCntA[id], eCntB[id]; cb < ca {
			ecommon += int(cb)
		} else {
			ecommon += int(ca)
		}
	}
	if ecommon > eA {
		ecommon = eA
	}
	if ecommon > eB {
		ecommon = eB
	}
	he := eA
	if eB > he {
		he = eB
	}
	he -= ecommon

	return hv + he
}

// prepareExpand computes the heuristic's base aggregates shared by every
// successor of cur: the a-side at depth cur.k+1 (identical for all branches)
// and the b-side at cur.used (each branch removes at most one vertex and its
// incident edges, applied as a delta by successorHeuristic). One O(V+E+L)
// pass per expanded state replaces one per generated successor.
func (s *searcher) prepareExpand(cur *state) {
	k1 := cur.k + 1
	used := cur.used
	vCntA, vCntB := s.vCntA, s.vCntB
	eCntA, eCntB := s.eCntA, s.eCntB
	clear(vCntA)
	clear(vCntB)
	clear(eCntA)
	clear(eCntB)

	s.baseRemA = s.nA - k1
	s.baseWildA = 0
	for i := k1; i < len(s.order); i++ {
		if id := s.vLabelA[s.order[i]]; id == 0 {
			s.baseWildA++
		} else {
			vCntA[id]++
		}
	}
	s.baseRemB, s.baseWildB = 0, 0
	for v := 0; v < s.nB; v++ {
		if used&(1<<uint(v)) != 0 {
			continue
		}
		s.baseRemB++
		if id := s.vLabelB[v]; id == 0 {
			s.baseWildB++
		} else {
			vCntB[id]++
		}
	}

	pm := s.processedMask[k1]
	s.baseEA, s.baseEAWild = 0, 0
	for i, e := range s.aEdges {
		if pm&(1<<uint(e.From)) != 0 && pm&(1<<uint(e.To)) != 0 {
			continue
		}
		s.baseEA++
		if id := s.eLabA[i]; id == 0 {
			s.baseEAWild++
		} else {
			eCntA[id]++
		}
	}
	s.baseEB, s.baseEBWild = 0, 0
	for i, e := range s.bEdges {
		if used&(1<<uint(e.From)) != 0 && used&(1<<uint(e.To)) != 0 {
			continue
		}
		s.baseEB++
		if id := s.eLabB[i]; id == 0 {
			s.baseEBWild++
		} else {
			eCntB[id]++
		}
	}

	s.baseMinV, s.baseMinE = 0, 0
	for id := 1; id < s.nLabels; id++ {
		if ca, cb := vCntA[id], vCntB[id]; cb < ca {
			s.baseMinV += int(cb)
		} else {
			s.baseMinV += int(ca)
		}
		if ca, cb := eCntA[id], eCntB[id]; cb < ca {
			s.baseMinE += int(cb)
		} else {
			s.baseMinE += int(ca)
		}
	}
}

// successorHeuristic evaluates heuristic(k+1, used|v) from the base
// aggregates: consuming b-vertex v removes its label from the unused-b
// multiset and retires every incident b-edge whose other endpoint is already
// used (or is v itself). eCntB is mutated during the walk and restored
// before returning. Passing v == Deleted evaluates the base directly.
func (s *searcher) successorHeuristic(used uint64, v int) int {
	remB, wildB, minV := s.baseRemB, s.baseWildB, s.baseMinV
	eB, eBWild, minE := s.baseEB, s.baseEBWild, s.baseMinE
	var touched []int32
	if v != Deleted {
		remB--
		if id := s.vLabelB[v]; id == 0 {
			wildB--
		} else if s.vCntB[id] <= s.vCntA[id] {
			minV--
		}
		touched = s.bIncEdge[s.bIncStart[v]:s.bIncStart[v+1]]
		for _, ei := range touched {
			e := s.bEdges[ei]
			other := e.From + e.To - v
			if other != v && used&(1<<uint(other)) == 0 {
				continue
			}
			eB--
			id := s.eLabB[ei]
			if id == 0 {
				eBWild--
				continue
			}
			if s.eCntB[id] <= s.eCntA[id] {
				minE--
			}
			s.eCntB[id]--
		}
	}

	common := s.baseWildA + wildB + minV
	if common > s.baseRemA {
		common = s.baseRemA
	}
	if common > remB {
		common = remB
	}
	hv := s.baseRemA
	if remB > hv {
		hv = remB
	}
	hv -= common

	ecommon := s.baseEAWild + eBWild + minE
	if ecommon > s.baseEA {
		ecommon = s.baseEA
	}
	if ecommon > eB {
		ecommon = eB
	}
	he := s.baseEA
	if eB > he {
		he = eB
	}
	he -= ecommon

	// Restore eCntB for the next sibling.
	for _, ei := range touched {
		e := s.bEdges[ei]
		other := e.From + e.To - v
		if other != v && used&(1<<uint(other)) == 0 {
			continue
		}
		if id := s.eLabB[ei]; id != 0 {
			s.eCntB[id]++
		}
	}

	return hv + he
}
