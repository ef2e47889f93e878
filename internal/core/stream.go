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
// arriving query graphs d (typically one per request) crossed with the
// resident uncertain side. It is the cross-product source with the resident
// signatures reused verbatim; only the query-side signatures are built here,
// once per call.
func NewStreamSource(r *Resident, d []*graph.Graph) CandidateSource {
	return newCrossSource(d, r.u, r.gsigs)
}
