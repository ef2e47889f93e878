package core

// The streaming-arrivals candidate source.
//
// The batch drivers rebuild the uncertain side's filter signatures on every
// Join call — fine for offline template building, wasteful for a resident
// service that answers thousands of requests against the same uncertain side.
// Resident packs that side exactly once: the graphs and their GSigs live for
// the life of the process, and every arriving query joins only its own delta
// — |D_request| × |U_resident| pairs with zero resident recomputation.
//
// A Resident is immutable after construction and safe for any number of
// concurrent JoinWith runs: GSig memoization is sync.Once-guarded and each
// NewStreamSource call owns its private query-side state.

import (
	"context"

	"simjoin/internal/filter"
	"simjoin/internal/graph"
	"simjoin/internal/ugraph"
)

// Resident is the long-lived uncertain side of a streaming join: the graphs
// and every derived structure the engine would otherwise rebuild per run.
type Resident struct {
	u     []*ugraph.Graph
	gsigs []*filter.GSig
}

// NewResident precomputes the resident side once: one filter signature per
// uncertain graph, shared by every subsequent stream join.
func NewResident(u []*ugraph.Graph) *Resident {
	return &Resident{u: u, gsigs: filter.NewGSigs(u)}
}

// Len returns the number of resident uncertain graphs.
func (r *Resident) Len() int { return len(r.u) }

// Graph returns resident graph gi (the G index of stream-join results).
func (r *Resident) Graph(gi int) *ugraph.Graph { return r.u[gi] }

// NewStreamSource returns the streaming-arrivals CandidateSource: the
// arriving query graphs d (typically one per request) joined against the
// resident uncertain side. The resident signatures are reused verbatim; only
// the query-side signatures are built here, once per call.
func NewStreamSource(r *Resident, d []*graph.Graph) CandidateSource {
	qis := make([]int, len(d))
	for i := range qis {
		qis[i] = i
	}
	return &streamSource{res: r, d: d, qsigs: filter.NewQSigs(d), qis: qis}
}

// streamSource feeds the delta cross product d × resident. It is the
// cross-product source with the uncertain side's per-run work hoisted into
// the Resident.
type streamSource struct {
	res   *Resident
	d     []*graph.Graph
	qsigs []*filter.QSig
	qis   []int // 0..len(d)-1, chunked into batches
}

func (s *streamSource) Queries() ([]*graph.Graph, []*filter.QSig) { return s.d, s.qsigs }

func (s *streamSource) TotalPairs() int64 {
	return int64(len(s.d)) * int64(len(s.res.u))
}

func (s *streamSource) Feed(ctx context.Context, _ *Options, emit func(Batch) bool, _ func(int64)) {
	for gi, g := range s.res.u {
		if ctx.Err() != nil {
			return
		}
		for start := 0; start < len(s.qis); start += sourceChunk {
			end := min(start+sourceChunk, len(s.qis))
			if !emit(Batch{GI: gi, G: g, GS: s.res.gsigs[gi], QIs: s.qis[start:end]}) {
				return
			}
		}
	}
}
