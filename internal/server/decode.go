// Package server is the resident join/Q-A service: it keeps one core.Resident
// (the uncertain side with its signatures) and, optionally, a
// trained qa.System warm in memory, and serves per-request delta joins
// (POST /join) and template-based question answering (POST /ask) behind an
// overload envelope — bounded admission, load-shedding tiers mapped onto the
// verdict ladder, retry with backoff around transient faults, a circuit
// breaker against verification storms, and graceful drain (DESIGN.md §14).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"unicode/utf8"

	"simjoin/internal/filter"
	"simjoin/internal/graph"
	"simjoin/internal/sparql"
)

// Limits bounds what a request may ask of the service. The decoders enforce
// every limit before any engine state is touched, so hostile payloads
// (oversized graphs, enormous label strings that would bloat the process-wide
// label dictionary, malformed JSON) are rejected at the door.
type Limits struct {
	// MaxBodyBytes caps the request body (also enforced by the HTTP layer).
	MaxBodyBytes int64
	// MaxQueryLen caps the SPARQL string / question text length in bytes.
	MaxQueryLen int
	// MaxVertices and MaxEdges cap the decoded query graph.
	MaxVertices, MaxEdges int
	// MaxLabelLen caps each vertex/edge label in bytes.
	MaxLabelLen int
	// MaxTau caps the per-request GED threshold override.
	MaxTau int
	// MaxLimit caps the per-request result limit.
	MaxLimit int
}

// DefaultLimits are the production defaults.
func DefaultLimits() Limits {
	return Limits{
		MaxBodyBytes: 1 << 20,
		MaxQueryLen:  16 << 10,
		MaxVertices:  64,
		MaxEdges:     256,
		MaxLabelLen:  256,
		MaxTau:       8,
		MaxLimit:     1000,
	}
}

// JoinRequest is the POST /join payload. Exactly one of Query (a SPARQL
// SELECT whose basic graph pattern becomes the query graph) or Graph (an
// explicit vertex/edge list) must be set.
type JoinRequest struct {
	// Query is a SPARQL SELECT query.
	Query string `json:"query,omitempty"`
	// Graph is an explicit query graph; wildcard labels start with '?'.
	Graph *GraphSpec `json:"graph,omitempty"`
	// Tau optionally overrides the service's GED threshold, clamped to
	// [0, Limits.MaxTau].
	Tau *int `json:"tau,omitempty"`
	// Alpha optionally overrides the similarity-probability threshold,
	// required in (0, 1].
	Alpha *float64 `json:"alpha,omitempty"`
	// Filters optionally overrides the service's filter chain for this
	// request: a comma-separated bound list validated against the bound
	// registry (e.g. "count,css,prob").
	Filters string `json:"filters,omitempty"`
	// Limit caps the matches returned (0 = all, bounded by Limits.MaxLimit).
	Limit int `json:"limit,omitempty"`
}

// GraphSpec is the explicit query-graph form: a vertex label list and
// [from, to, label] edge triples indexing into it.
type GraphSpec struct {
	Vertices []string   `json:"vertices"`
	Edges    []EdgeSpec `json:"edges"`
}

// EdgeSpec is one directed labeled edge.
type EdgeSpec struct {
	From  int    `json:"from"`
	To    int    `json:"to"`
	Label string `json:"label"`
}

// AskRequest is the POST /ask payload.
type AskRequest struct {
	Question string `json:"question"`
}

// errBadRequest wraps every decode failure so the handler can map it to 400.
var errBadRequest = errors.New("bad request")

func badRequestf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: "+format, append([]interface{}{errBadRequest}, args...)...)
}

// DecodeJoinRequest validates a /join body against lim and builds the query
// graph. It never panics on hostile input (a fuzz target pins this) and
// rejects anything over the configured limits before interning a single
// label.
func DecodeJoinRequest(body []byte, lim Limits) (*JoinRequest, *graph.Graph, error) {
	if int64(len(body)) > lim.MaxBodyBytes {
		return nil, nil, badRequestf("body exceeds %d bytes", lim.MaxBodyBytes)
	}
	var req JoinRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, badRequestf("invalid JSON: %v", err)
	}
	if req.Tau != nil && (*req.Tau < 0 || *req.Tau > lim.MaxTau) {
		return nil, nil, badRequestf("tau %d outside [0, %d]", *req.Tau, lim.MaxTau)
	}
	if req.Alpha != nil && (*req.Alpha <= 0 || *req.Alpha > 1) {
		return nil, nil, badRequestf("alpha %v outside (0, 1]", *req.Alpha)
	}
	if req.Limit < 0 || req.Limit > lim.MaxLimit {
		return nil, nil, badRequestf("limit %d outside [0, %d]", req.Limit, lim.MaxLimit)
	}
	if req.Filters != "" {
		if _, err := filter.ParseChain(req.Filters); err != nil {
			return nil, nil, badRequestf("%v", err)
		}
	}
	switch {
	case req.Query != "" && req.Graph != nil:
		return nil, nil, badRequestf("request sets both query and graph")
	case req.Query != "":
		qg, err := decodeQueryGraph(req.Query, lim)
		if err != nil {
			return nil, nil, err
		}
		return &req, qg, nil
	case req.Graph != nil:
		qg, err := decodeGraphSpec(req.Graph, lim)
		if err != nil {
			return nil, nil, err
		}
		return &req, qg, nil
	default:
		return nil, nil, badRequestf("request needs a query or a graph")
	}
}

func decodeQueryGraph(query string, lim Limits) (*graph.Graph, error) {
	if len(query) > lim.MaxQueryLen {
		return nil, badRequestf("query exceeds %d bytes", lim.MaxQueryLen)
	}
	if !utf8.ValidString(query) {
		return nil, badRequestf("query is not valid UTF-8")
	}
	qg, err := sparql.ParseToGraph(query)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	if err := checkGraphLimits(qg.Graph, lim); err != nil {
		return nil, err
	}
	return qg.Graph, nil
}

func decodeGraphSpec(spec *GraphSpec, lim Limits) (*graph.Graph, error) {
	if len(spec.Vertices) == 0 {
		return nil, badRequestf("graph has no vertices")
	}
	if len(spec.Vertices) > lim.MaxVertices {
		return nil, badRequestf("graph has %d vertices, limit %d", len(spec.Vertices), lim.MaxVertices)
	}
	if len(spec.Edges) > lim.MaxEdges {
		return nil, badRequestf("graph has %d edges, limit %d", len(spec.Edges), lim.MaxEdges)
	}
	// Validate every label before interning any: a request must not bloat
	// the process-wide label dictionary and then fail.
	for i, l := range spec.Vertices {
		if err := checkLabel(l, lim); err != nil {
			return nil, badRequestf("vertex %d: %v", i, err)
		}
	}
	for i, e := range spec.Edges {
		if e.From < 0 || e.From >= len(spec.Vertices) || e.To < 0 || e.To >= len(spec.Vertices) {
			return nil, badRequestf("edge %d references vertex outside [0, %d)", i, len(spec.Vertices))
		}
		if e.From == e.To {
			return nil, badRequestf("edge %d is a self-loop", i)
		}
		if err := checkLabel(e.Label, lim); err != nil {
			return nil, badRequestf("edge %d: %v", i, err)
		}
	}
	g := graph.New(len(spec.Vertices))
	for _, l := range spec.Vertices {
		g.AddVertex(l)
	}
	for i, e := range spec.Edges {
		if err := g.AddEdge(e.From, e.To, e.Label); err != nil {
			return nil, badRequestf("edge %d: %v", i, err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, badRequestf("%v", err)
	}
	return g, nil
}

func checkLabel(l string, lim Limits) error {
	if l == "" {
		return errors.New("empty label")
	}
	if len(l) > lim.MaxLabelLen {
		return fmt.Errorf("label exceeds %d bytes", lim.MaxLabelLen)
	}
	if !utf8.ValidString(l) {
		return errors.New("label is not valid UTF-8")
	}
	for i := 0; i < len(l); i++ {
		if l[i] < 0x20 || l[i] == 0x7f {
			return fmt.Errorf("label contains control byte 0x%02x", l[i])
		}
	}
	return nil
}

// checkGraphLimits bounds a graph built by the SPARQL path, whose labels come
// from the query text (already length-capped as a whole, but individual IRIs
// still get the per-label checks).
func checkGraphLimits(g *graph.Graph, lim Limits) error {
	if g.NumVertices() > lim.MaxVertices {
		return badRequestf("query graph has %d vertices, limit %d", g.NumVertices(), lim.MaxVertices)
	}
	if g.NumEdges() > lim.MaxEdges {
		return badRequestf("query graph has %d edges, limit %d", g.NumEdges(), lim.MaxEdges)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if len(g.VertexLabel(v)) > lim.MaxLabelLen {
			return badRequestf("vertex %d: label exceeds %d bytes", v, lim.MaxLabelLen)
		}
	}
	for _, e := range g.Edges() {
		if len(e.Label) > lim.MaxLabelLen {
			return badRequestf("edge label exceeds %d bytes", lim.MaxLabelLen)
		}
	}
	return nil
}

// DecodeAskRequest validates a /ask body against lim.
func DecodeAskRequest(body []byte, lim Limits) (*AskRequest, error) {
	if int64(len(body)) > lim.MaxBodyBytes {
		return nil, badRequestf("body exceeds %d bytes", lim.MaxBodyBytes)
	}
	var req AskRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, badRequestf("invalid JSON: %v", err)
	}
	if req.Question == "" {
		return nil, badRequestf("empty question")
	}
	if len(req.Question) > lim.MaxQueryLen {
		return nil, badRequestf("question exceeds %d bytes", lim.MaxQueryLen)
	}
	if !utf8.ValidString(req.Question) {
		return nil, badRequestf("question is not valid UTF-8")
	}
	for i := 0; i < len(req.Question); i++ {
		if c := req.Question[i]; c < 0x20 && c != '\n' && c != '\t' {
			return nil, badRequestf("question contains control byte 0x%02x", c)
		}
	}
	return &req, nil
}
