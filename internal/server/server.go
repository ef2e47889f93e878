package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"simjoin/internal/core"
	"simjoin/internal/fault"
	"simjoin/internal/graph"
	"simjoin/internal/obs"
	"simjoin/internal/qa"
	"simjoin/internal/sparql"
)

// Config assembles a Server. Resident is required; everything else has a
// serviceable zero value.
type Config struct {
	// Resident is the uncertain side the service joins against.
	Resident *core.Resident
	// Join is the base engine configuration; requests at tierExact run with
	// it unchanged (per-request tau/alpha overrides aside).
	Join core.Options
	// QA answers POST /ask; nil makes /ask return 501.
	QA qa.System
	// Samples are example query graphs served round-robin by GET /sample
	// (typically the workload's query side) so load generators can draw
	// realistic payloads without knowing the label alphabet; empty makes
	// /sample return 404.
	Samples []*graph.Graph

	// MaxInFlight bounds concurrently executing requests (default 4).
	MaxInFlight int
	// MaxQueue bounds the admission wait queue (default 4×MaxInFlight).
	MaxQueue int
	// RequestTimeout is the per-request deadline, propagated through the
	// join via context (default 10s).
	RequestTimeout time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight requests
	// (default RequestTimeout + 1s).
	DrainTimeout time.Duration

	// DegradeSampled and DegradeApprox are queue-pressure thresholds in
	// (0, 1]: at DegradeSampled the service skips exact enumeration
	// (Monte Carlo first), at DegradeApprox it serves certified approximate
	// bounds only. Defaults 0.25 and 0.6.
	DegradeSampled float64
	DegradeApprox  float64

	// RetryMax is how many times a request is retried on transient injected
	// faults (fault.ErrInjected / fault.ErrBudget) before failing (default
	// 2); RetryBackoff is the base backoff, doubled per attempt (default
	// 5ms).
	RetryMax     int
	RetryBackoff time.Duration

	// Breaker configures the verification-storm circuit breaker; zero
	// disables it.
	Breaker BreakerConfig

	// Limits bounds request payloads; the zero value means DefaultLimits.
	Limits Limits

	// Obs, Tracer, Events and Logger are forwarded to the engine and used
	// for the server's own instruments; all optional.
	Obs    *obs.Registry
	Tracer *obs.Tracer
	Events *obs.EventLog
	Logger obs.Logger
}

func (c *Config) normalise() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = c.RequestTimeout + time.Second
	}
	if c.DegradeSampled <= 0 {
		c.DegradeSampled = 0.25
	}
	if c.DegradeApprox <= 0 {
		c.DegradeApprox = 0.6
	}
	if c.RetryMax < 0 {
		c.RetryMax = 0
	} else if c.RetryMax == 0 {
		c.RetryMax = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.Limits == (Limits{}) {
		c.Limits = DefaultLimits()
	}
}

// Degradation tiers. Every admitted request executes at exactly one tier;
// shed requests never execute. The tiers map queue pressure onto the verdict
// ladder (DESIGN.md §10): exact enumeration is the most expensive rung, the
// Monte Carlo rung bounds per-pair cost by sample size, and the approximate
// rung serves certified SimP lower bounds at near-filter cost.
type tier int

const (
	tierExact tier = iota
	tierSampled
	tierApprox
	tierShed
)

func (t tier) String() string {
	switch t {
	case tierExact:
		return "exact"
	case tierSampled:
		return "sampled"
	case tierApprox:
		return "approx"
	default:
		return "shed"
	}
}

// Server is the resident join/Q-A service.
type Server struct {
	cfg  Config
	adm  *admitter
	brk  *breaker
	qsys qa.System

	// Drain state: once draining, new requests are shed and Drain waits on
	// wg (which tracks admitted requests only).
	drainMu  sync.Mutex
	draining bool
	wg       sync.WaitGroup

	sampleIdx atomic.Uint64

	panics  *obs.Counter
	retries *obs.Counter
	latency map[string]*obs.Histogram
}

// New builds a Server; it panics if cfg.Resident is nil.
func New(cfg Config) *Server {
	cfg.normalise()
	if cfg.Resident == nil {
		panic("server.New: Config.Resident is nil")
	}
	s := &Server{
		cfg:     cfg,
		adm:     newAdmitter(cfg.MaxInFlight, cfg.MaxQueue, cfg.Obs),
		brk:     newBreaker(cfg.Breaker, cfg.Obs),
		qsys:    cfg.QA,
		panics:  cfg.Obs.Counter("server_panics_total"),
		retries: cfg.Obs.Counter("server_retries_total"),
		latency: map[string]*obs.Histogram{
			"join": cfg.Obs.Histogram(obs.Name("server_request_seconds", "endpoint", "join"), obs.DurationBuckets),
			"ask":  cfg.Obs.Histogram(obs.Name("server_request_seconds", "endpoint", "ask"), obs.DurationBuckets),
		},
	}
	return s
}

// Handler returns the service's HTTP handler, with the obs debug surface
// (/metrics, /metrics.json, /debug/...) mounted alongside the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/join", s.recoverWrap("join", s.handleJoin))
	mux.HandleFunc("/ask", s.recoverWrap("ask", s.handleAsk))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/sample", s.handleSample)
	if s.cfg.Obs != nil || s.cfg.Tracer != nil {
		dbg := obs.Handler(s.cfg.Obs, s.cfg.Tracer)
		mux.Handle("/metrics", dbg)
		mux.Handle("/metrics.json", dbg)
		mux.Handle("/debug/", dbg)
	}
	return mux
}

// recoverWrap contains handler panics: the request is accounted as shed
// (it produced no answer) and the process survives — the same containment
// stance as per-pair quarantine inside the engine.
func (s *Server) recoverWrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Inc()
				s.countTier(endpoint, tierShed)
				s.logf("server: recovered panic in /%s: %v", endpoint, rec)
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		h(w, r)
	}
}

// tierFor picks the execution tier for an admitted request from queue
// pressure and breaker state. The breaker caps the tier at approx while open.
func (s *Server) tierFor(pressure float64, now time.Time) tier {
	t := tierExact
	switch {
	case pressure >= s.cfg.DegradeApprox:
		t = tierApprox
	case pressure >= s.cfg.DegradeSampled:
		t = tierSampled
	}
	if t != tierApprox && !s.brk.allowFull(now) {
		t = tierApprox
	}
	return t
}

// tierOptions maps a tier onto engine options. The knobs reuse the verdict
// ladder as-is: MaxWorlds=1 makes every nontrivial pair over-budget so exact
// enumeration is skipped, and SampleWorlds=-1 disables the sampling rung so
// over-budget pairs fall straight to the approximate one.
func (s *Server) tierOptions(t tier) core.Options {
	o := s.cfg.Join
	switch t {
	case tierSampled:
		o.MaxWorlds = 1
	case tierApprox:
		o.MaxWorlds = 1
		o.SampleWorlds = -1
	}
	return o
}

// admit runs the shared admission path. On success the caller owns done()
// and must call it exactly once; on failure the request has already been
// accounted and responded to.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string) (func(), tier, bool) {
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		s.countTier(endpoint, tierShed)
		writeShed(w, "draining")
		return nil, tierShed, false
	}
	s.wg.Add(1)
	s.drainMu.Unlock()

	release, pressure, err := s.adm.acquire(r.Context())
	if err != nil {
		s.wg.Done()
		s.countTier(endpoint, tierShed)
		if errors.Is(err, errShed) {
			writeShed(w, "queue full")
		} else {
			writeError(w, http.StatusServiceUnavailable, "deadline expired while queued")
		}
		return nil, tierShed, false
	}
	var once sync.Once
	done := func() {
		once.Do(func() {
			release()
			s.wg.Done()
		})
	}
	return done, s.tierFor(pressure, time.Now()), true
}

// JoinMatch is one result row of a /join response.
type JoinMatch struct {
	Graph    int     `json:"graph"`
	SimP     float64 `json:"simP"`
	Distance int     `json:"distance"`
	Verdict  string  `json:"verdict"`
	CI       float64 `json:"ci,omitempty"`
}

// JoinResponse is the /join response body.
type JoinResponse struct {
	Tier       string      `json:"tier"`
	Matches    []JoinMatch `json:"matches"`
	Total      int         `json:"total"`
	Candidates int64       `json:"candidates"`
	ElapsedMS  float64     `json:"elapsedMs"`
	Retries    int         `json:"retries,omitempty"`
}

// AskResponse is the /ask response body.
type AskResponse struct {
	System    string           `json:"system"`
	Bindings  []sparql.Binding `json:"bindings"`
	ElapsedMS float64          `json:"elapsedMs"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := readBody(r, s.cfg.Limits.MaxBodyBytes)
	if err != nil {
		s.countRejected("join")
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	req, qg, err := DecodeJoinRequest(body, s.cfg.Limits)
	if err != nil {
		s.countRejected("join")
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	done, t, ok := s.admit(w, r, "join")
	if !ok {
		return
	}
	defer done()

	start := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	opts := s.tierOptions(t)
	if req.Tau != nil {
		opts.Tau = *req.Tau
	}
	if req.Alpha != nil {
		opts.Alpha = *req.Alpha
	}
	opts.Obs = s.cfg.Obs
	opts.Tracer = s.cfg.Tracer
	opts.Events = s.cfg.Events
	opts.Logger = s.cfg.Logger

	pairs, st, retriesUsed, err := s.joinWithRetry(ctx, qg, opts)
	elapsed := time.Since(start)
	s.latency["join"].ObserveDuration(elapsed)
	s.brk.record(time.Now(), elapsed, st.QuarantinedPairs > 0)
	if err != nil {
		s.countTier("join", tierShed)
		if ctx.Err() != nil {
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
		} else {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.countTier("join", t)

	matches := make([]JoinMatch, 0, len(pairs))
	for _, p := range pairs {
		matches = append(matches, JoinMatch{
			Graph:    p.G,
			SimP:     p.SimP,
			Distance: p.Distance,
			Verdict:  p.Verdict.String(),
			CI:       p.CI,
		})
	}
	total := len(matches)
	if req.Limit > 0 && len(matches) > req.Limit {
		matches = matches[:req.Limit]
	}
	writeJSON(w, http.StatusOK, JoinResponse{
		Tier:       t.String(),
		Matches:    matches,
		Total:      total,
		Candidates: st.Candidates,
		ElapsedMS:  float64(elapsed.Microseconds()) / 1e3,
		Retries:    retriesUsed,
	})
}

// joinWithRetry runs the delta join, retrying on transient injected faults
// (and on the server.join failpoint, which the chaos harness arms to
// exercise this path) with doubling backoff. Context expiry is never
// retried.
func (s *Server) joinWithRetry(ctx context.Context, qg *graph.Graph, opts core.Options) ([]core.Pair, core.Stats, int, error) {
	backoff := s.cfg.RetryBackoff
	var (
		lastErr error
		lastSt  core.Stats
	)
	for attempt := 0; ; attempt++ {
		err := fault.Hit("server.join", "")
		var pairs []core.Pair
		var st core.Stats
		if err == nil {
			src := core.NewStreamSource(s.cfg.Resident, []*graph.Graph{qg})
			pairs, st, err = core.JoinWith(ctx, src, opts)
		}
		if err == nil {
			return pairs, st, attempt, nil
		}
		lastErr, lastSt = err, st
		if ctx.Err() != nil || attempt >= s.cfg.RetryMax || !transient(err) {
			return nil, lastSt, attempt, lastErr
		}
		s.retries.Inc()
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, lastSt, attempt, ctx.Err()
		}
		backoff *= 2
	}
}

// transient reports whether err is a retryable injected fault.
func transient(err error) bool {
	return errors.Is(err, fault.ErrInjected) || errors.Is(err, fault.ErrBudget)
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.qsys == nil {
		writeError(w, http.StatusNotImplemented, "no QA system loaded (serve a QA workload)")
		return
	}
	body, err := readBody(r, s.cfg.Limits.MaxBodyBytes)
	if err != nil {
		s.countRejected("ask")
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	req, err := DecodeAskRequest(body, s.cfg.Limits)
	if err != nil {
		s.countRejected("ask")
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	done, t, ok := s.admit(w, r, "ask")
	if !ok {
		return
	}
	defer done()

	start := time.Now()
	bindings, err := s.askWithDeadline(r.Context(), req.Question)
	elapsed := time.Since(start)
	s.latency["ask"].ObserveDuration(elapsed)
	s.brk.record(time.Now(), elapsed, false)
	if err != nil {
		s.countTier("ask", tierShed)
		if errors.Is(err, context.DeadlineExceeded) {
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
		} else {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.countTier("ask", t)
	writeJSON(w, http.StatusOK, AskResponse{
		System:    s.qsys.Name(),
		Bindings:  bindings,
		ElapsedMS: float64(elapsed.Microseconds()) / 1e3,
	})
}

// askWithDeadline bounds a QA answer with the request timeout. qa.System has
// no context parameter, so the answer runs in a goroutine that is abandoned
// (not killed) on expiry; template matching is CPU-bounded and short, so an
// abandoned answer finishes soon after and only its result is discarded.
func (s *Server) askWithDeadline(ctx context.Context, question string) ([]sparql.Binding, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	type result struct {
		bindings []sparql.Binding
		err      error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Inc()
				ch <- result{err: fmt.Errorf("qa panic: %v", rec)}
			}
		}()
		b, err := s.qsys.Answer(question)
		ch <- result{bindings: b, err: err}
	}()
	select {
	case res := <-ch:
		return res.bindings, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// healthz reports liveness plus the envelope's live state.
type healthz struct {
	Status   string `json:"status"` // "ok" or "draining"
	Inflight int    `json:"inflight"`
	Queued   int    `json:"queued"`
	Breaker  string `json:"breaker"`
	Resident int    `json:"resident"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	s.drainMu.Unlock()
	code := http.StatusOK
	if status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthz{
		Status:   status,
		Inflight: s.adm.Inflight(),
		Queued:   s.adm.Queued(),
		Breaker:  s.brk.State().String(),
		Resident: s.cfg.Resident.Len(),
	})
}

// handleSample serves one configured query graph, round-robin, as a ready
// /join request body.
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	if len(s.cfg.Samples) == 0 {
		writeError(w, http.StatusNotFound, "no samples configured")
		return
	}
	g := s.cfg.Samples[int(s.sampleIdx.Add(1)-1)%len(s.cfg.Samples)]
	spec := &GraphSpec{}
	for v := 0; v < g.NumVertices(); v++ {
		spec.Vertices = append(spec.Vertices, g.VertexLabel(v))
	}
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, EdgeSpec{From: e.From, To: e.To, Label: e.Label})
	}
	writeJSON(w, http.StatusOK, JoinRequest{Graph: spec})
}

// BeginDrain flips the server into draining mode: every subsequent request
// is shed with 429. Idempotent.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
}

// Drain waits for in-flight requests to finish, bounded by ctx and the
// configured DrainTimeout. It returns nil on a clean drain and the deadline
// error if requests were still running when time ran out.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	doneCh := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(doneCh)
	}()
	select {
	case <-doneCh:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %w (inflight=%d queued=%d)", ctx.Err(), s.adm.Inflight(), s.adm.Queued())
	}
}

// countTier accounts one finished (or shed) request. Every request that
// reaches admission lands in exactly one endpoint×tier counter; decode
// failures are counted separately by countRejected.
func (s *Server) countTier(endpoint string, t tier) {
	s.cfg.Obs.Counter(obs.Name("server_requests_total", "endpoint", endpoint, "tier", t.String())).Inc()
}

func (s *Server) countRejected(endpoint string) {
	s.cfg.Obs.Counter(obs.Name("server_rejected_total", "endpoint", endpoint)).Inc()
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Logf(format, args...)
	}
}

func readBody(r *http.Request, max int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, max))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return body, nil
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// writeShed is the 429 path; Retry-After gives well-behaved clients a
// backoff hint.
func writeShed(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", strconv.Itoa(1))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "overloaded: " + reason})
}
