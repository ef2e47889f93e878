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

// GSig is the precomputed signature of an uncertain graph: the structures
// Theorems 3 and 4 read from the g side of a pair.
type GSig struct {
	G          *ugraph.Graph
	NumV, NumE int
	DegSeq     []int
	ELabels    []graph.LabelCount // concrete edge label multiset, sorted by id
	EWilds     int
	Mass       float64 // TotalMass
	WorldsF    float64 // WorldCountFloat

	flat      []gsigLabel               // all (vertex, label) records in order
	byLabel   map[graph.LabelID][]int32 // concrete label id -> vertices carrying it
	wildVerts []int32                   // vertices with a wildcard candidate label

	relaxedOnce sync.Once
	relaxed     *graph.Graph

	condOnce sync.Once
	conds    []condSig // nil when the graph has no split vertex
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
			conds = append(conds, condSig{gs: NewGSig(cond), mass: mass})
		}
		s.conds = conds
	})
	return s.conds
}

// NewGSig precomputes the signature of one uncertain graph.
func NewGSig(g *ugraph.Graph) *GSig {
	s := &GSig{
		G:       g,
		NumV:    g.NumVertices(),
		NumE:    g.NumEdges(),
		DegSeq:  g.DegreeSequence(),
		Mass:    g.TotalMass(),
		WorldsF: g.WorldCountFloat(),
		byLabel: make(map[graph.LabelID][]int32),
	}
	s.ELabels, s.EWilds = g.EdgeLabelIDMultiset()
	for v := 0; v < s.NumV; v++ {
		ids := g.LabelIDs(v)
		ls := g.Labels(v)
		wild := false
		for i, id := range ids {
			s.flat = append(s.flat, gsigLabel{id: id, p: ls[i].P})
			if id == graph.WildcardID {
				wild = true
			} else {
				s.byLabel[id] = append(s.byLabel[id], int32(v))
			}
		}
		if wild {
			s.wildVerts = append(s.wildVerts, int32(v))
		}
	}
	return s
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
		for _, v := range gs.byLabel[qid] {
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
	return multisetCommonIDs(qs.ELabels, qs.EWilds, qs.NumE, gs.ELabels, gs.EWilds, gs.NumE)
}

// CSSConstantSig is CSSConstant over precomputed signatures.
func CSSConstantSig(qs *QSig, gs *GSig) int {
	lamE := LambdaEUncertainSig(qs, gs)
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
	return totalProbabilityUB(&bp, qs, gs, tau, CSSLowerBoundUncertainSigScratch(&bp, qs, gs))
}

// totalProbabilityUB is the scratch-reusing core of the tight probabilistic
// bound: cssLB must be the pair's CSS lower bound (Theorem 3).
func totalProbabilityUB(bp *matching.Bipartite, qs *QSig, gs *GSig, tau, cssLB int) float64 {
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
