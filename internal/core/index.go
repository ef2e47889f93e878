package core

import (
	"context"
	"math/bits"
	"slices"
	"sort"

	"simjoin/internal/filter"
	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// Index accelerates SimJ over a fixed certain-graph set D with two cheap,
// sound prescreens applied before the per-pair CSS bound:
//
//  1. Size screen — ged(q,g) ≥ |size(q) − size(g)| where size = |V| + |E|
//     (every edit changes the size by exactly 1), so only queries in a
//     ±τ size window around g need scanning.
//  2. Label screen — ged(q,g) ≥ max(|V(q)|,|V(g)|) − λV(q,g) (part of the
//     LM filter), and λV is upper-bounded by a multiset-overlap count that
//     costs O(labels) instead of the O(V³) matching
//     (filter.LabelOverlapScreen).
//
// Both screens are implied by bounds the pipeline applies anyway, so
// JoinIndexed returns exactly the same pairs as Join.
//
// The queries are packed once, at BuildIndex time, into a size-sorted
// structure of arrays: contiguous size runs make the ±τ window one position
// range, and the queries' concrete-label bitsets are stored word-major, so the
// sweep over a window streams one contiguous row per nonzero word of g's label
// set. The sweep first computes a word-parallel upper bound on each query's
// label overlap and runs the exact label screen only on the queries that
// bound cannot rule out. The index also stores every query's filter signature
// (filter.QSig), shared by all joins over the index.
type Index struct {
	d     []*graph.Graph
	qsigs []*filter.QSig

	ids   []int32  // query indices sorted by (size, index): position → query
	numV  []int32  // |V(q)| per position
	dq    []int32  // distinct concrete vertex labels of q per position
	width int      // label-bitset words per position
	rows  []uint64 // word-major label bitsets: rows[w*len(ids)+p]

	runVal []int32 // distinct query sizes, ascending
	runOff []int32 // first position of each size run; len(runVal)+1 entries
}

// BuildIndex indexes a certain-graph set for repeated joins.
func BuildIndex(d []*graph.Graph) *Index {
	qsigs := filter.NewQSigs(d)
	n := len(d)
	idx := &Index{
		d:     d,
		qsigs: qsigs,
		ids:   make([]int32, n),
		numV:  make([]int32, n),
		dq:    make([]int32, n),
	}
	size := func(id int32) int32 { return int32(qsigs[id].NumV + qsigs[id].NumE) }
	for i := range idx.ids {
		idx.ids[i] = int32(i)
	}
	sort.SliceStable(idx.ids, func(a, b int) bool { return size(idx.ids[a]) < size(idx.ids[b]) })
	for p, id := range idx.ids {
		qs := qsigs[id]
		idx.numV[p] = int32(qs.NumV)
		idx.dq[p] = int32(qs.VSet.Len())
		idx.width = max(idx.width, len(qs.VSet.Words()))
		if s := size(id); p == 0 || s != idx.runVal[len(idx.runVal)-1] {
			idx.runVal = append(idx.runVal, s)
			idx.runOff = append(idx.runOff, int32(p))
		}
	}
	idx.runOff = append(idx.runOff, int32(n))
	idx.rows = make([]uint64, idx.width*n)
	for p, id := range idx.ids {
		for w, word := range qsigs[id].VSet.Words() {
			idx.rows[w*n+p] = word
		}
	}
	return idx
}

// Len returns the number of indexed graphs.
func (idx *Index) Len() int { return len(idx.d) }

// Candidates returns the indices of queries surviving both prescreens
// against the uncertain graph g at threshold tau, in ascending order.
func (idx *Index) Candidates(g *ugraph.Graph, tau int) []int {
	cands := idx.candidates(g, tau, new(indexScratch))
	slices.Sort(cands)
	return cands
}

// indexScratch is the reusable state of one candidate sweep: g's union label
// set, its nonzero word positions, the per-position overlap accumulator and
// the candidate buffer. The feed loop of JoinIndexed reuses one across every
// uncertain graph.
type indexScratch struct {
	set   graph.LabelSet
	nz    []int
	acc   []int32
	cands []int
}

// candidates is Candidates with a caller-owned scratch, in sweep order
// (ascending size, then index) rather than sorted: the join feed does not
// need the order, and skipping the sort keeps the feed linear. The returned
// slice is freshly allocated at its exact length: emitted batches alias it,
// so it must outlive the next call.
func (idx *Index) candidates(g *ugraph.Graph, tau int, sc *indexScratch) []int {
	n := len(idx.ids)
	gNumV := int32(g.NumVertices())
	gWilds := int32(filter.UnionConcreteLabels(g, &sc.set))
	gWords := sc.set.Words()
	sc.nz = sc.nz[:0]
	for w, word := range gWords {
		if word != 0 && w < idx.width { // wider words: no query carries those labels
			sc.nz = append(sc.nz, w)
		}
	}

	lo, hi := g.Size()-tau, g.Size()+tau
	out := sc.cands[:0]
	r := sort.Search(len(idx.runVal), func(r int) bool { return int(idx.runVal[r]) >= lo })
	for ; r < len(idx.runVal) && int(idx.runVal[r]) <= hi; r++ {
		p0, p1 := int(idx.runOff[r]), int(idx.runOff[r+1])
		acc := slices.Grow(sc.acc[:0], p1-p0)[:p1-p0]
		clear(acc)
		sc.acc = acc
		// acc[i] = |labels(q) ∩ labels(g)| over distinct labels, one row per
		// nonzero word of g's set.
		for _, w := range sc.nz {
			gw := gWords[w]
			for i, word := range idx.rows[w*n+p0 : w*n+p1] {
				acc[i] += int32(bits.OnesCount64(word & gw))
			}
		}
		for i, di := range acc {
			p := p0 + i
			// Each of q's dq − di distinct labels absent from g leaves at
			// least one q-vertex unmatched, so this overlap bound is never
			// below the exact screen's estimate: pairs it rules out the exact
			// screen would rule out too.
			ub := idx.numV[p] - (idx.dq[p] - di) + gWilds
			if int(max(idx.numV[p], gNumV)-ub) > tau {
				continue
			}
			if id := idx.ids[p]; filter.LabelOverlapScreen(idx.qsigs[id], &sc.set, int(gWilds), int(gNumV), tau) {
				out = append(out, int(id))
			}
		}
	}
	sc.cands = out
	if len(out) == 0 {
		return nil
	}
	return slices.Clone(out)
}

// JoinIndexed is Join using a prebuilt index over D. It returns exactly the
// pairs Join(idx.d, u, opts) returns; Stats.IndexSkipped counts the pairs
// the prescreens eliminated without touching the bound machinery.
func JoinIndexed(idx *Index, u []*ugraph.Graph, opts Options) ([]Pair, Stats, error) {
	return JoinIndexedContext(context.Background(), idx, u, opts)
}

// Source returns the CandidateSource streaming only the pairs that survive
// the index's prescreens against u, for use with JoinWith.
func (idx *Index) Source(u []*ugraph.Graph) CandidateSource {
	return &indexSource{idx: idx, u: u}
}

// JoinIndexedContext is JoinIndexed with cancellation, with the same
// contract as JoinContext: on cancellation the accumulated Stats and
// ctx.Err() are returned and the partial results are dropped. It is the same
// pipeline engine as JoinContext with the index-backed candidate source
// plugged in: the source runs the prescreens and builds each uncertain
// graph's filter signature once, then fans the candidate list out in batches.
func JoinIndexedContext(ctx context.Context, idx *Index, u []*ugraph.Graph, opts Options) ([]Pair, Stats, error) {
	return joinEngine(ctx, idx.Source(u), opts)
}
