package filter

// Precomputed per-graph signatures for the filtering pipeline.
//
// Every bound in this package needs the same handful of per-graph structures:
// degree sequences (Def. 9), vertex/edge label multisets, wildcard counts,
// probability mass, and — for the probabilistic bound — per-label existence
// probabilities. The original entry points recompute all of them on every
// call, which is wasted work inside the O(|D|·|U|) pair loop of a join where
// each graph participates in thousands of pairs. QSig and GSig compute them
// exactly once per graph; the *Sig bound variants below consume the cached
// structures and return bit-identical values to their recomputing
// counterparts (which remain as thin wrappers).
//
// All label state is dictionary-encoded (graph.LabelID): multisets are sorted
// (id, count) vectors intersected by two-pointer merges, label membership is
// a bitset probe, and the per-world λV matching compares int32s instead of
// strings. Wildcards are graph.WildcardID throughout.

import (
	"slices"
	"sync"

	"simjoin/internal/graph"
	"simjoin/internal/matching"
	"simjoin/internal/ugraph"
)

// QSig is the precomputed signature of a certain (query) graph: everything
// the CSS and probabilistic bounds read from the q side of a pair.
type QSig struct {
	G          *graph.Graph
	NumV, NumE int
	DegSeq     []int              // total degrees, non-increasing
	VLabels    []graph.LabelCount // concrete vertex label multiset, sorted by id
	VWilds     int                // wildcard vertex count (Wq of Theorem 4)
	ELabels    []graph.LabelCount // concrete edge label multiset, sorted by id
	EWilds     int                // wildcard edge count
	VIDs       []graph.LabelID    // per-vertex label ids (do not modify)
	VSet       graph.LabelSet     // distinct concrete vertex label ids
}

// NewQSig precomputes the signature of one certain graph.
func NewQSig(q *graph.Graph) *QSig {
	s := &QSig{
		G:      q,
		NumV:   q.NumVertices(),
		NumE:   q.NumEdges(),
		DegSeq: q.DegreeSequence(),
		VIDs:   q.VertexLabelIDs(),
	}
	s.VLabels, s.VWilds = q.VertexLabelIDMultiset()
	s.ELabels, s.EWilds = q.EdgeLabelIDMultiset()
	for _, lc := range s.VLabels {
		s.VSet.Add(lc.ID)
	}
	return s
}

// NewQSigs precomputes signatures for a certain-graph set.
func NewQSigs(d []*graph.Graph) []*QSig {
	out := make([]*QSig, len(d))
	for i, q := range d {
		out[i] = NewQSig(q)
	}
	return out
}

// gsigLabel is one (vertex, candidate label) record of a GSig, kept in the
// exact order ExpectedCommonLabels iterates so the cached computation
// accumulates floating-point sums identically. Wildcard candidates carry
// graph.WildcardID.
type gsigLabel struct {
	id graph.LabelID
	p  float64
}

// condSig is one memoized conditioned sub-signature of the tight
// probabilistic bound: the GSig of the graph conditioned on one candidate
// label of the split vertex, with that condition's probability mass.
type condSig struct {
	gs   *GSig
	mass float64
}

// GCounts is the part of an uncertain graph's signature the counted CSS
// bound (CSSLowerBoundCounted) reads: the sizes, the degree sequence, the
// edge label multiset and, per concrete label, how many vertices carry it
// among their candidates. core.Index's sweep fills one per graph into reused
// scratch (Fill), so a graph that no query survives against builds no GSig.
type GCounts struct {
	NumV, NumE int
	DegSeq     []int              // total degrees, non-increasing
	ELabels    []graph.LabelCount // concrete edge label multiset, sorted by id
	EWilds     int                // wildcard edge count
	// VCounts counts the (vertex, candidate label) records of each concrete
	// label, sorted by id; VWilds counts the vertices with a wildcard
	// candidate.
	VCounts []graph.LabelCount
	VWilds  int
}

// Fill summarises g into c, reusing c's buffers: once they have grown to
// g's size, filling allocates nothing.
func (c *GCounts) Fill(g *ugraph.Graph) {
	c.NumV, c.NumE = g.NumVertices(), g.NumEdges()
	deg := slices.Grow(c.DegSeq[:0], c.NumV)[:c.NumV]
	clear(deg)
	for _, e := range g.Edges() {
		deg[e.From]++
		deg[e.To]++
	}
	slices.Sort(deg)
	slices.Reverse(deg)
	c.DegSeq = deg

	c.ELabels, c.EWilds = slices.Grow(c.ELabels[:0], c.NumE), 0
	for _, id := range g.EdgeLabelIDs() {
		if id == graph.WildcardID {
			c.EWilds++
		} else {
			c.ELabels = append(c.ELabels, graph.LabelCount{ID: id, N: 1})
		}
	}
	c.ELabels = foldCounts(c.ELabels)
	c.fillVertices(g)
}

// fillVertices fills the vertex side of c from g: VCounts and VWilds.
func (c *GCounts) fillVertices(g *ugraph.Graph) {
	records := 0
	for v := 0; v < c.NumV; v++ {
		records += len(g.LabelIDs(v))
	}
	c.VCounts, c.VWilds = slices.Grow(c.VCounts[:0], records), 0
	for v := 0; v < c.NumV; v++ {
		wild := false
		for _, id := range g.LabelIDs(v) {
			if id == graph.WildcardID {
				wild = true
			} else {
				c.VCounts = append(c.VCounts, graph.LabelCount{ID: id, N: 1})
			}
		}
		if wild {
			c.VWilds++
		}
	}
	c.VCounts = foldCounts(c.VCounts)
}

// foldCounts sorts label counts by id and sums the counts of equal ids, in
// place. It sorts by insertion, like graph.CountLabelIDs: a graph's label
// lists are small.
func foldCounts(lc []graph.LabelCount) []graph.LabelCount {
	for i := 1; i < len(lc); i++ {
		for j := i; j > 0 && lc[j].ID < lc[j-1].ID; j-- {
			lc[j], lc[j-1] = lc[j-1], lc[j]
		}
	}
	out := lc[:0]
	for _, x := range lc {
		if n := len(out); n > 0 && out[n-1].ID == x.ID {
			out[n-1].N += x.N
		} else {
			out = append(out, x)
		}
	}
	return out
}

// GSig is the precomputed signature of an uncertain graph: the structures
// Theorems 3 and 4 read from the g side of a pair.
type GSig struct {
	G *ugraph.Graph
	GCounts
	Mass    float64 // TotalMass
	WorldsF float64 // WorldCountFloat

	flat []gsigLabel // all (vertex, label) records in order

	// labelVerts lists, label by label in VCounts order, the vertices that
	// carry each concrete label among their candidates, in vertex order:
	// VCounts[i]'s are labelVerts[labelStart[i]:labelStart[i+1]].
	// wildVerts lists the vertices with a wildcard candidate label.
	labelStart []int32
	labelVerts []int32
	wildVerts  []int32

	relaxedOnce sync.Once
	relaxed     *graph.Graph

	condOnce sync.Once
	conds    []condSig // nil when the graph has no split vertex

	rootOnce sync.Once
	root     *splitNode
}

// splitNode is one node of an uncertain graph's possible-world split tree:
// a group of its worlds (the root covers all of them) with the group's
// signature. A node splits as ugraph.Group.Split does, and the two halves
// are built once, on first use, whichever pair asks first; the tree holds at
// most 2^GN − 1 nodes when no partition exceeds GN groups.
type splitNode struct {
	group  ugraph.Group
	gs     *GSig
	splitV int // the group's SplitVertex; -1 when it cannot be split

	once        sync.Once
	left, right *splitNode
}

func newSplitNode(gr ugraph.Group, gs *GSig) *splitNode {
	return &splitNode{group: gr, gs: gs, splitV: gr.G.SplitVertex()}
}

// children returns the node's two halves, building them on first use;
// concurrency-safe. The node must be splittable (splitV >= 0). The halves
// keep the masses Condition returns, so every group mass is bit-identical to
// a fresh Group.Split's, and their signatures share the node's structural
// counts (conditionedGSig).
func (n *splitNode) children() (*splitNode, *splitNode) {
	n.once.Do(func() {
		a, b, _ := n.group.Split()
		n.left = newSplitNode(a, conditionedGSig(n.gs, a.G))
		n.right = newSplitNode(b, conditionedGSig(n.gs, b.G))
	})
	return n.left, n.right
}

// splitRoot returns the root of the graph's memoized split tree, whose
// signature is s itself; concurrency-safe like Relaxed.
func (s *GSig) splitRoot() *splitNode {
	s.rootOnce.Do(func() {
		s.root = newSplitNode(ugraph.Group{G: s.G, Mass: s.Mass}, s)
	})
	return s.root
}

// Relaxed returns the certain relaxation of the uncertain graph: the same
// structure, with a vertex keeping its label only when it has exactly one
// candidate label and that label is concrete — every other vertex degrades to
// the wildcard "?". Wildcards only ever add label matches, so for any
// label-compatibility-based lower bound lb, lb(q, Relaxed()) ≤ lb(q, w) for
// every possible world w: the relaxation lets certain-graph baseline filters
// prune uncertain pairs soundly. Built lazily on first use and cached;
// concurrency-safe.
func (s *GSig) Relaxed() *graph.Graph {
	s.relaxedOnce.Do(func() {
		w := graph.New(s.NumV)
		for v := 0; v < s.NumV; v++ {
			ls := s.G.Labels(v)
			if len(ls) == 1 && !graph.IsWildcard(ls[0].Name) {
				w.AddVertexID(ls[0].Name, s.G.LabelIDs(v)[0])
			} else {
				w.AddVertexID("?", graph.WildcardID)
			}
		}
		eids := s.G.EdgeLabelIDs()
		for i, e := range s.G.Edges() {
			w.MustAddEdgeID(e.From, e.To, e.Label, eids[i])
		}
		s.relaxed = w
	})
	return s.relaxed
}

// conditioned returns the memoized per-condition sub-signatures of the tight
// probabilistic bound (one per candidate label of the split vertex), or nil
// when the graph has no uncertain vertex to condition on. Conditioning
// depends only on g, so the sub-signatures are built once per graph instead
// of once per pair; concurrency-safe like Relaxed.
func (s *GSig) conditioned() []condSig {
	s.condOnce.Do(func() {
		v := s.G.SplitVertex()
		if v < 0 {
			return
		}
		ls := s.G.Labels(v)
		conds := make([]condSig, 0, len(ls))
		for i := range ls {
			cond, mass := s.G.Condition(v, []int{i})
			conds = append(conds, condSig{gs: conditionedGSig(s, cond), mass: mass})
		}
		s.conds = conds
	})
	return s.conds
}

// NewGSig precomputes the signature of one uncertain graph.
func NewGSig(g *ugraph.Graph) *GSig {
	var c GCounts
	c.Fill(g)
	return NewGSigCounts(g, &c)
}

// NewGSigCounts is NewGSig for a graph whose counts c already holds
// (c.Fill(g)): the signature takes over c's buffers instead of counting
// again, and c is left empty.
func NewGSigCounts(g *ugraph.Graph, c *GCounts) *GSig {
	s := &GSig{
		G:       g,
		GCounts: *c,
		Mass:    g.TotalMass(),
		WorldsF: g.WorldCountFloat(),
	}
	*c = GCounts{}
	s.indexVertices()
	return s
}

// conditionedGSig is NewGSig for g, a conditioned copy of parent's graph
// (ugraph.Graph.Condition). Conditioning rewrites one vertex's labels and
// nothing else, so the signature shares parent's sizes, degree sequence and
// edge label counts, which are read-only, and counts only the vertex side.
func conditionedGSig(parent *GSig, g *ugraph.Graph) *GSig {
	s := &GSig{G: g, Mass: g.TotalMass(), WorldsF: g.WorldCountFloat()}
	s.NumV, s.NumE = parent.NumV, parent.NumE
	s.DegSeq, s.ELabels, s.EWilds = parent.DegSeq, parent.ELabels, parent.EWilds
	s.fillVertices(g)
	s.indexVertices()
	return s
}

// indexVertices builds s's (vertex, label) records and its per-label and
// wildcard vertex lists from its graph and VCounts; the three vertex lists
// share one allocation.
func (s *GSig) indexVertices() {
	g := s.G
	nl := len(s.VCounts)
	total := int32(0)
	for _, lc := range s.VCounts {
		total += lc.N
	}
	buf := make([]int32, nl+1+int(total)+s.VWilds)
	s.labelStart = buf[: nl+1 : nl+1]
	s.labelVerts = buf[nl+1 : nl+1+int(total) : nl+1+int(total)]
	s.wildVerts = buf[nl+1+int(total) : nl+1+int(total)]
	// Fill with the starts themselves as cursors: afterwards each start has
	// advanced to the next label's, so one shift restores the offsets.
	start := int32(0)
	for i, lc := range s.VCounts {
		s.labelStart[i] = start
		start += lc.N
	}
	records := 0
	for v := 0; v < s.NumV; v++ {
		records += len(g.LabelIDs(v))
	}
	s.flat = make([]gsigLabel, 0, records)
	for v := 0; v < s.NumV; v++ {
		ids := g.LabelIDs(v)
		ls := g.Labels(v)
		wild := false
		for i, id := range ids {
			s.flat = append(s.flat, gsigLabel{id: id, p: ls[i].P})
			if id == graph.WildcardID {
				wild = true
				continue
			}
			li := labelIndex(s.VCounts, id)
			s.labelVerts[s.labelStart[li]] = int32(v)
			s.labelStart[li]++
		}
		if wild {
			s.wildVerts = append(s.wildVerts, int32(v))
		}
	}
	copy(s.labelStart[1:], s.labelStart[:nl])
	s.labelStart[0] = 0
}

// labelIndex returns the position of the concrete label id in the sorted
// counts vc, or -1 when no vertex carries it.
func labelIndex(vc []graph.LabelCount, id graph.LabelID) int {
	lo, hi := 0, len(vc)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if vc[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(vc) && vc[lo].ID == id {
		return lo
	}
	return -1
}

// labelVertices returns the vertices that carry the concrete label id among
// their candidates, in vertex order (do not modify).
func (s *GSig) labelVertices(id graph.LabelID) []int32 {
	i := labelIndex(s.VCounts, id)
	if i < 0 {
		return nil
	}
	return s.labelVerts[s.labelStart[i]:s.labelStart[i+1]]
}

// NewGSigs precomputes signatures for an uncertain-graph set.
func NewGSigs(u []*ugraph.Graph) []*GSig {
	out := make([]*GSig, len(u))
	for i, g := range u {
		out[i] = NewGSig(g)
	}
	return out
}

// LambdaVUncertainSig is LambdaVUncertain over precomputed signatures: the
// Def. 10 bipartite graph is built from the per-label vertex lists instead of
// scanning every candidate label of every (u, v) pair.
func LambdaVUncertainSig(qs *QSig, gs *GSig) int {
	bp := matching.NewBipartite(qs.NumV, gs.NumV)
	addLambdaVEdges(bp, qs, gs)
	return bp.MaxMatchingSize()
}

// addLambdaVEdges populates the Def. 10 vertex-label compatibility graph by
// integer id. A g-vertex may be added twice for one q-vertex (once via its
// concrete label, once via a wildcard candidate); duplicate edges do not
// change the maximum matching size.
func addLambdaVEdges(bp *matching.Bipartite, qs *QSig, gs *GSig) {
	for u, qid := range qs.VIDs {
		if qid == graph.WildcardID {
			for v := 0; v < gs.NumV; v++ {
				bp.AddEdge(u, v)
			}
			continue
		}
		for _, v := range gs.labelVertices(qid) {
			bp.AddEdge(u, int(v))
		}
		for _, v := range gs.wildVerts {
			bp.AddEdge(u, int(v))
		}
	}
}

// LambdaVUncertainSigScratch is LambdaVUncertainSig reusing a caller-provided
// bipartite scratch, for allocation-free pruning inside pair loops.
func LambdaVUncertainSigScratch(bp *matching.Bipartite, qs *QSig, gs *GSig) int {
	bp.Reset(qs.NumV, gs.NumV)
	addLambdaVEdges(bp, qs, gs)
	return bp.MaxMatchingSize()
}

// CSSLowerBoundUncertainSigScratch is CSSLowerBoundUncertainSig reusing a
// caller-provided bipartite scratch.
func CSSLowerBoundUncertainSigScratch(bp *matching.Bipartite, qs *QSig, gs *GSig) int {
	lb := CSSConstantSig(qs, gs) - LambdaVUncertainSigScratch(bp, qs, gs)
	if lb < 0 {
		lb = 0
	}
	return lb
}

// LambdaEUncertainSig is LambdaEUncertain over precomputed signatures: a
// two-pointer merge of the sorted edge-label id vectors.
func LambdaEUncertainSig(qs *QSig, gs *GSig) int {
	return lambdaECounts(qs, &gs.GCounts)
}

func lambdaECounts(qs *QSig, gs *GCounts) int {
	return multisetCommonIDs(qs.ELabels, qs.EWilds, qs.NumE, gs.ELabels, gs.EWilds, gs.NumE)
}

// CSSConstantSig is CSSConstant over precomputed signatures.
func CSSConstantSig(qs *QSig, gs *GSig) int {
	return cssConstantCounts(qs, &gs.GCounts)
}

// cssConstantCounts is CSSConstantSig over the g side's counts alone.
func cssConstantCounts(qs *QSig, gs *GCounts) int {
	lamE := lambdaECounts(qs, gs)
	oriented := func(small, big []int, bigV, bigE int) int {
		return bigV + bigE - lamE + (degreeDistanceSeq(small, big)+1)/2
	}
	switch {
	case qs.NumV < gs.NumV:
		return oriented(qs.DegSeq, gs.DegSeq, gs.NumV, gs.NumE)
	case qs.NumV > gs.NumV:
		return oriented(gs.DegSeq, qs.DegSeq, qs.NumV, qs.NumE)
	default:
		a := oriented(qs.DegSeq, gs.DegSeq, gs.NumV, gs.NumE)
		if b := oriented(gs.DegSeq, qs.DegSeq, qs.NumV, qs.NumE); b > a {
			return b
		}
		return a
	}
}

// CSSLowerBoundUncertainSig is CSSLowerBoundUncertain over precomputed
// signatures (Theorem 3).
func CSSLowerBoundUncertainSig(qs *QSig, gs *GSig) int {
	lb := CSSConstantSig(qs, gs) - LambdaVUncertainSig(qs, gs)
	if lb < 0 {
		lb = 0
	}
	return lb
}

// ExpectedCommonLabelsSig is ExpectedCommonLabels over precomputed
// signatures. It iterates the cached (vertex, label) records in the same
// order as the original, so the floating-point sum is bit-identical; label
// membership is a bitset probe on the query's concrete vertex labels.
func ExpectedCommonLabelsSig(qs *QSig, gs *GSig) float64 {
	ez := 0.0
	for i := range gs.flat {
		fl := &gs.flat[i]
		if fl.id == graph.WildcardID || qs.VSet.Has(fl.id) {
			ez += fl.p
		}
	}
	return ez
}

// SimilarityUpperBoundSig is SimilarityUpperBound over precomputed
// signatures (Theorem 4).
func SimilarityUpperBoundSig(qs *QSig, gs *GSig, tau int) float64 {
	mass := gs.Mass
	denom := float64(CSSConstantSig(qs, gs) - tau - qs.VWilds)
	if denom <= 0 {
		return mass
	}
	ub := ExpectedCommonLabelsSig(qs, gs) / denom
	if ub > mass {
		return mass
	}
	if ub < 0 {
		return 0
	}
	return ub
}

// GroupUpperBoundSig is GroupUpperBound with the group's conditioned graph
// already summarised as gs; mass is the group's probability mass.
func GroupUpperBoundSig(qs *QSig, gs *GSig, mass float64, tau int) float64 {
	if CSSLowerBoundUncertainSig(qs, gs) > tau {
		return 0
	}
	ub := SimilarityUpperBoundSig(qs, gs, tau)
	if ub > mass {
		return mass
	}
	return ub
}

// TotalProbabilityUpperBoundSig is TotalProbabilityUpperBound over
// precomputed signatures; the per-condition sub-signatures are memoized on
// gs, so repeated evaluations of the same graph build them once.
func TotalProbabilityUpperBoundSig(qs *QSig, gs *GSig, tau int) float64 {
	var bp matching.Bipartite
	return TotalProbabilityUpperBoundSigScratch(&bp, qs, gs, tau, CSSLowerBoundUncertainSigScratch(&bp, qs, gs))
}

// TotalProbabilityUpperBoundSigScratch is TotalProbabilityUpperBoundSig
// reusing a caller-provided matching scratch and the pair's CSS lower bound
// cssLB (CSSLowerBoundUncertainSigScratch of the same pair), which a caller
// that has run the CSS bound already holds. With the conditioned
// sub-signatures memoized on gs, a repeat evaluation allocates nothing.
func TotalProbabilityUpperBoundSigScratch(bp *matching.Bipartite, qs *QSig, gs *GSig, tau, cssLB int) float64 {
	if cssLB > tau {
		return 0
	}
	conds := gs.conditioned()
	if conds == nil {
		return SimilarityUpperBoundSig(qs, gs, tau)
	}
	ub := 0.0
	for i := range conds {
		cs := conds[i].gs
		if CSSLowerBoundUncertainSigScratch(bp, qs, cs) > tau {
			continue
		}
		b := SimilarityUpperBoundSig(qs, cs, tau)
		if b > conds[i].mass {
			b = conds[i].mass
		}
		ub += b
	}
	if plain := SimilarityUpperBoundSig(qs, gs, tau); plain < ub {
		return plain
	}
	return ub
}

// PairVerifier caches the world-invariant parts of the certain×certain CSS
// bound (Theorem 1) between a query and the possible worlds of one uncertain
// graph. Every world shares the uncertain graph's vertex count, edge set and
// edge labels — only vertex labels vary — so λE and the degree-distance term
// are constants of the pair and only λV must be recomputed per world. The
// zero value is ready to use after Reset; the embedded matching scratch is
// reused across worlds and pairs, so a PairVerifier must not be shared
// between goroutines.
type PairVerifier struct {
	qs *QSig
	// constQ is the oriented CSS constant with q as the smaller graph
	// (bound = constQ − λV); constG with the world as the smaller graph.
	constQ, constG int
	gNumV          int
	bp             *matching.Bipartite
}

// Reset reconfigures the verifier for a new (q, g) pair, retaining scratch
// allocations. The worlds later passed to WorldLowerBound must come from gs's
// graph (or a conditioned group of it — conditioning preserves structure).
func (pv *PairVerifier) Reset(qs *QSig, gs *GSig) {
	lamE := LambdaEUncertainSig(qs, gs)
	pv.qs = qs
	pv.gNumV = gs.NumV
	// degreeDistanceSeq requires the smaller sequence first; only the
	// orientation(s) WorldLowerBound will read are computed.
	pv.constQ, pv.constG = 0, 0
	if qs.NumV <= gs.NumV {
		pv.constQ = gs.NumV + gs.NumE - lamE + (degreeDistanceSeq(qs.DegSeq, gs.DegSeq)+1)/2
	}
	if gs.NumV <= qs.NumV {
		pv.constG = qs.NumV + qs.NumE - lamE + (degreeDistanceSeq(gs.DegSeq, qs.DegSeq)+1)/2
	}
	if pv.bp == nil {
		pv.bp = matching.NewBipartite(qs.NumV, gs.NumV)
	}
}

// WorldLowerBound returns CSSLowerBound(q, w) for a possible world w of the
// pair's uncertain graph, recomputing only the λV matching — by integer
// equality against the world's precomputed label-id array, not string
// comparison.
func (pv *PairVerifier) WorldLowerBound(w *graph.Graph) int {
	qs := pv.qs
	bp := pv.bp
	bp.Reset(qs.NumV, pv.gNumV)
	wids := w.VertexLabelIDs()
	for u, qid := range qs.VIDs {
		if qid == graph.WildcardID {
			for v := 0; v < pv.gNumV; v++ {
				bp.AddEdge(u, v)
			}
			continue
		}
		for v, wid := range wids {
			if wid == qid || wid == graph.WildcardID {
				bp.AddEdge(u, v)
			}
		}
	}
	lamV := bp.MaxMatchingSize()
	clamp := func(x int) int {
		if x < 0 {
			return 0
		}
		return x
	}
	switch {
	case qs.NumV < pv.gNumV:
		return clamp(pv.constQ - lamV)
	case qs.NumV > pv.gNumV:
		return clamp(pv.constG - lamV)
	default:
		a := clamp(pv.constQ - lamV)
		if b := clamp(pv.constG - lamV); b > a {
			return b
		}
		return a
	}
}
