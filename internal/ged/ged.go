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
// The search is allocation-lean: searchers are pooled (sync.Pool), states
// come from a per-searcher chunk arena and carry one assignment plus a parent
// pointer instead of a mapping copy, and the heuristic counts label
// multisets in reusable slices over interned label ids instead of maps.
package ged

import (
	"container/heap"
	"errors"
	"fmt"
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

// searcher holds the inputs and all reusable scratch of one A* run. The
// smaller graph (by vertex count) is always mapped onto the larger one;
// swapped indicates the caller's arguments were reversed. Searchers are
// recycled through searcherPool; every slice below retains capacity across
// runs.
type searcher struct {
	a, b    *graph.Graph // |V(a)| <= |V(b)|
	order   []int        // processing order of a's vertices (degree-descending)
	swapped bool
	opts    Options

	// Locally interned labels: id 0 is reserved for wildcards. Vertex and
	// edge labels share one dense id space so the heuristic's count slices
	// stay small; the remap is keyed by the process-wide dictionary id
	// (graph.LabelID), so building it hashes int32s, never strings.
	ids              map[graph.LabelID]int
	vLabelA, vLabelB []int
	eLabA, eLabB     []int // per-edge label ids, parallel to Edges()
	nLabels          int

	// processedMask[k] is the bitmask of a-vertices in order[:k].
	processedMask []uint64

	// Dense adjacency matrices (edge index + 1, 0 = absent), flattened
	// row-major over the ≤64-vertex graphs. They replace the per-pair
	// EdgeIndex map lookups in the innermost search loop.
	nA, nB     int
	adjA, adjB []int32
	aEdges     []graph.Edge
	bEdges     []graph.Edge

	// CSR incidence lists of b-edges per b-vertex (self-loops once); the
	// successor heuristic walks only the edges touching the newly used
	// b-vertex instead of rescanning the whole edge list.
	bIncStart []int32
	bIncEdge  []int32

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
	// outMap is a goal's mapping in the caller's direction.
	curMap, outMap []int

	// Chunk arena for states.
	stChunks [][]state
	stIdx    int
	stUsed   int

	pq       stateHeap
	expanded int
}

var searcherPool = sync.Pool{
	New: func() interface{} { return &searcher{ids: make(map[graph.LabelID]int)} },
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
	s, err := newSearcher(g1, g2, opts)
	if err != nil {
		return Result{}, err
	}
	defer s.release()
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
	gm := s.goalMapping(goal)
	m := make(Mapping, len(gm))
	copy(m, gm)
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
	s, err := newSearcher(g1, g2, opts)
	if err != nil {
		return 0, err
	}
	defer s.release()
	for found := 0; ; found++ {
		goal, cost, err := s.next()
		if err != nil || goal == nil {
			return s.expanded, err
		}
		if found == MaxMappings {
			return s.expanded, ErrTooManyMappings
		}
		fn(s.goalMapping(goal), cost)
	}
}

// newSearcher takes a pooled searcher and prepares it for one search of g1
// against g2; release returns it.
func newSearcher(g1, g2 *graph.Graph, opts Options) (*searcher, error) {
	if g2.NumVertices() > 64 || g1.NumVertices() > 64 {
		return nil, fmt.Errorf("ged: graphs larger than 64 vertices unsupported (got %d, %d)",
			g1.NumVertices(), g2.NumVertices())
	}
	s := searcherPool.Get().(*searcher)
	s.a, s.b, s.swapped, s.opts = g1, g2, false, opts
	if g1.NumVertices() > g2.NumVertices() {
		s.a, s.b = g2, g1
		s.swapped = true
	}
	s.stIdx, s.stUsed = 0, 0
	s.intern()
	s.computeOrder()
	s.curMap = growInts(s.curMap, s.nA)
	start := s.newState()
	*start = state{v: Deleted, f: s.heuristic(0, 0)}
	s.pq = append(s.pq[:0], start)
	s.expanded = 0
	return s, nil
}

func (s *searcher) release() {
	s.a, s.b = nil, nil
	s.opts = Options{}
	searcherPool.Put(s)
}

// goalMapping translates a goal state's assignments into the searcher's
// outMap in the caller's direction (g1 -> g2), inverting when the graphs were
// swapped.
func (s *searcher) goalMapping(goal *state) Mapping {
	n := s.nA
	if s.swapped {
		n = s.nB
	}
	m := growInts(s.outMap, n)
	s.outMap = m
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
	return m
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

// intern assigns dense local ids to every vertex and edge label of both
// graphs (wildcards collapse to id 0) and sizes the heuristic count slices.
// The graphs' precomputed dictionary ids are the keys, so no string is
// hashed or compared here.
func (s *searcher) intern() {
	ids := s.ids
	clear(ids)
	get := func(gid graph.LabelID) int {
		if gid == graph.WildcardID {
			return 0
		}
		id, ok := ids[gid]
		if !ok {
			id = len(ids) + 1
			ids[gid] = id
		}
		return id
	}
	aV, bV := s.a.VertexLabelIDs(), s.b.VertexLabelIDs()
	s.vLabelA = growInts(s.vLabelA, s.a.NumVertices())
	for v := range s.vLabelA {
		s.vLabelA[v] = get(aV[v])
	}
	s.vLabelB = growInts(s.vLabelB, s.b.NumVertices())
	for v := range s.vLabelB {
		s.vLabelB[v] = get(bV[v])
	}
	aE, bE := s.a.EdgeLabelIDs(), s.b.EdgeLabelIDs()
	s.eLabA = growInts(s.eLabA, s.a.NumEdges())
	for i := range s.eLabA {
		s.eLabA[i] = get(aE[i])
	}
	s.eLabB = growInts(s.eLabB, s.b.NumEdges())
	for i := range s.eLabB {
		s.eLabB[i] = get(bE[i])
	}
	s.nLabels = len(ids) + 1
	s.vCntA = growInt32s(s.vCntA, s.nLabels)
	s.vCntB = growInt32s(s.vCntB, s.nLabels)
	s.eCntA = growInt32s(s.eCntA, s.nLabels)
	s.eCntB = growInt32s(s.eCntB, s.nLabels)

	s.nA, s.nB = s.a.NumVertices(), s.b.NumVertices()
	s.aEdges, s.bEdges = s.a.Edges(), s.b.Edges()
	s.adjA = growInt32s(s.adjA, s.nA*s.nA)
	clear(s.adjA)
	for i, e := range s.aEdges {
		s.adjA[e.From*s.nA+e.To] = int32(i + 1)
	}
	s.adjB = growInt32s(s.adjB, s.nB*s.nB)
	clear(s.adjB)
	for i, e := range s.bEdges {
		s.adjB[e.From*s.nB+e.To] = int32(i + 1)
	}

	s.bIncStart = growInt32s(s.bIncStart, s.nB+1)
	clear(s.bIncStart)
	for _, e := range s.bEdges {
		s.bIncStart[e.From]++
		if e.To != e.From {
			s.bIncStart[e.To]++
		}
	}
	total := int32(0)
	for v := 0; v < s.nB; v++ {
		c := s.bIncStart[v]
		s.bIncStart[v] = total
		total += c
	}
	s.bIncStart[s.nB] = total
	s.bIncEdge = growInt32s(s.bIncEdge, int(total))
	// Fill with the starts themselves as cursors: after filling, each start
	// has advanced to the next vertex's start, so one backward shift restores
	// the offsets.
	for i, e := range s.bEdges {
		s.bIncEdge[s.bIncStart[e.From]] = int32(i)
		s.bIncStart[e.From]++
		if e.To != e.From {
			s.bIncEdge[s.bIncStart[e.To]] = int32(i)
			s.bIncStart[e.To]++
		}
	}
	for v := s.nB; v > 0; v-- {
		s.bIncStart[v] = s.bIncStart[v-1]
	}
	s.bIncStart[0] = 0
}

// computeOrder processes high-degree vertices first: they constrain the most
// edges and tighten costs early. It also precomputes the processed-prefix
// bitmasks the heuristic's edge term reads.
func (s *searcher) computeOrder() {
	deg := s.a.Degrees()
	n := s.a.NumVertices()
	s.order = growInts(s.order, n)
	for i := range s.order {
		s.order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && deg[s.order[j]] > deg[s.order[j-1]]; j-- {
			s.order[j], s.order[j-1] = s.order[j-1], s.order[j]
		}
	}
	s.processedMask = growMasks(s.processedMask, n+1)
	s.processedMask[0] = 0
	for k := 1; k <= n; k++ {
		s.processedMask[k] = s.processedMask[k-1] | 1<<uint(s.order[k-1])
	}
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
	for v := 0; v < s.b.NumVertices(); v++ {
		if cur.used&(1<<uint(v)) == 0 {
			cost++
		}
	}
	for _, e := range s.b.Edges() {
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
	remA := s.a.NumVertices() - k
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
	for v := 0; v < s.b.NumVertices(); v++ {
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
	for i, e := range s.a.Edges() {
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
	for i, e := range s.b.Edges() {
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
