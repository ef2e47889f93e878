package core

import (
	"math/bits"
	"slices"
	"sort"

	"simjoin/internal/filter"
	"simjoin/internal/ged"
	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// Index accelerates SimJ over a fixed certain-graph set D with three cheap,
// sound prescreens applied before the filter chain, cheapest first:
//
//  1. Size screen — ged(q,g) ≥ |size(q) − size(g)| where size = |V| + |E|
//     (every edit changes the size by exactly 1), so only queries in a
//     ±τ size window around g need scanning.
//  2. Label-overlap bound — a word-parallel upper bound on q's vertices
//     whose label g can match, from popcounts over the queries' label
//     bitsets; the pair is skipped when max(|V(q)|,|V(g)|) minus that bound
//     exceeds τ.
//  3. Counted CSS bound — Theorem 3 with the Def. 10 matching replaced by a
//     label count (filter.CSSLowerBoundCounted), which needs g's counts
//     (filter.GCounts) but no O(|V|³) matching and no GSig.
//
// Screen 2 is a relaxation of screen 3, and screen 3 never exceeds the CSS
// bound of Theorem 3, so a join over the index returns exactly the Def. 7
// answer set of the full cross product. The index is every join's candidate
// feed: Join builds a one-shot Index per call, a caller joining the same D
// repeatedly builds one and passes idx.Source(u) to JoinWith, and
// NewStreamSource indexes one request's queries.
//
// The queries are packed once, at BuildIndex time, into a size-sorted
// structure of arrays: contiguous size runs make the ±τ window one position
// range, and the queries' concrete-label bitsets are stored word-major, so the
// sweep over a window streams one contiguous row per nonzero word of g's label
// set. The index also stores every query's filter signature (filter.QSig)
// and its GED side (ged.Prepared), shared by all joins over the index.
type Index struct {
	d      []*graph.Graph
	qsigs  []*filter.QSig
	qsides []*ged.Prepared

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
		d:      d,
		qsigs:  qsigs,
		qsides: make([]*ged.Prepared, n),
		ids:    make([]int32, n),
		numV:   make([]int32, n),
		dq:     make([]int32, n),
	}
	for i, q := range d {
		idx.qsides[i] = ged.Prepare(q)
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

// indexScratch is the reusable state of one candidate sweep: g's union label
// set, its nonzero word positions, the per-position overlap accumulator, g's
// counts for the counted CSS bound and the candidate buffer. Each join worker
// reuses one across every uncertain graph it sweeps.
type indexScratch struct {
	set    graph.LabelSet
	nz     []int
	acc    []int32
	counts filter.GCounts
	cands  []int
}

// testNoPrescreen, when set, turns the sweep's prescreens off: every sweep
// returns every query, so every pair reaches the filter chain. It is the
// every-pair reference the prescreened joins are diffed against in tests.
var testNoPrescreen bool

// sweep returns the queries surviving the index's three prescreens against
// uncertain graph gi at threshold tau, in sweep order (ascending size, then
// index): the join does not need another order, and skipping the sort keeps
// the sweep linear. The returned slice is the scratch's candidate buffer,
// valid until the next sweep with sc. It also returns gi's signature when
// some query survives, for the chain, and nil otherwise. The counted CSS
// bound reads only gi's counts (filter.GCounts): the first position that
// reaches it fills them into sc, or takes a prebuilt signature's, so a graph
// that no query survives against builds no signature, and one that some
// query survives builds it on those counts.
func (s *Source) sweep(gi, tau int, sc *indexScratch) ([]int, *filter.GSig) {
	idx, g := s.idx, s.u[gi]
	out := sc.cands[:0]
	var gs *filter.GSig
	if testNoPrescreen {
		for _, id := range idx.ids {
			out = append(out, int(id))
		}
		sc.cands = out
		if len(out) > 0 {
			s.counts(gi, &sc.counts)
			gs = s.gsig(gi, &sc.counts)
		}
		return out, gs
	}
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

	var counts *filter.GCounts
	lo, hi := g.Size()-tau, g.Size()+tau
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
			// least one q-vertex unmatched, so ub is never below the label
			// overlap Wq + Wg + Σ_{l ∈ labels(g)} cnt_q(l), which in turn
			// bounds λVcount: pairs this test rules out the counted bound
			// would rule out too.
			ub := idx.numV[p] - (idx.dq[p] - di) + gWilds
			if int(max(idx.numV[p], gNumV)-ub) > tau {
				continue
			}
			if counts == nil {
				counts = s.counts(gi, &sc.counts)
			}
			if id := idx.ids[p]; filter.CSSLowerBoundCounted(idx.qsigs[id], counts) <= tau {
				out = append(out, int(id))
			}
		}
	}
	sc.cands = out
	if len(out) > 0 {
		gs = s.gsig(gi, &sc.counts)
	}
	return out, gs
}

// Source is a join's candidate feed: the uncertain graphs u, each swept
// against an Index over the certain graphs by the join's workers (sweep).
// Only the pairs that survive the index's prescreens reach the filter chain;
// the rest count in Stats.IndexSkipped. Build one with Index.Source or
// NewStreamSource.
type Source struct {
	idx   *Index
	u     []*ugraph.Graph
	gsigs []*filter.GSig // u's prebuilt signatures (a Resident's); nil builds each on demand
}

// Source returns the feed sweeping u against the index, for use with
// JoinWith. JoinWith over it returns exactly the pairs and Stats counters of
// Join(idx.d, u, opts).
func (idx *Index) Source(u []*ugraph.Graph) *Source {
	return &Source{idx: idx, u: u}
}

// gsig returns uncertain graph gi's filter signature: the prebuilt one when
// the source carries them, else a fresh one built on gi's counts, which
// sweep has filled into scratch and the signature takes over. Only sweep
// asks, at most once per graph.
func (s *Source) gsig(gi int, scratch *filter.GCounts) *filter.GSig {
	if s.gsigs != nil {
		return s.gsigs[gi]
	}
	return filter.NewGSigCounts(s.u[gi], scratch)
}

// counts returns uncertain graph gi's counts for the counted CSS bound: the
// prebuilt signature's when the source carries them, else gi's filled into
// scratch.
func (s *Source) counts(gi int, scratch *filter.GCounts) *filter.GCounts {
	if s.gsigs != nil {
		return &s.gsigs[gi].GCounts
	}
	scratch.Fill(s.u[gi])
	return scratch
}
