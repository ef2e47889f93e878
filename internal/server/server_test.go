package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"simjoin/internal/core"
	"simjoin/internal/fault"
	"simjoin/internal/graph"
	"simjoin/internal/obs"
	"simjoin/internal/qa"
	"simjoin/internal/sparql"
	"simjoin/internal/workload"
)

// testWorkload builds a small synthetic workload and its Resident.
func testWorkload(t *testing.T) ([]*graph.Graph, *core.Resident) {
	t.Helper()
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 12
	cfg.Vertices = 6
	cfg.Edges = 8
	d, u := workload.ER(cfg)
	return d, core.NewResident(u)
}

func testJoinOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Tau = 2
	opts.Alpha = 0.5
	opts.Workers = 2
	return opts
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, []*graph.Graph) {
	t.Helper()
	d, res := testWorkload(t)
	cfg := Config{
		Resident: res,
		Join:     testJoinOptions(),
		Obs:      obs.New(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), d
}

// graphSpecOf converts a query graph to the /join explicit-graph JSON form.
func graphSpecOf(g *graph.Graph) *GraphSpec {
	spec := &GraphSpec{}
	for v := 0; v < g.NumVertices(); v++ {
		spec.Vertices = append(spec.Vertices, g.VertexLabel(v))
	}
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, EdgeSpec{From: e.From, To: e.To, Label: e.Label})
	}
	return spec
}

func postJSON(t *testing.T, h http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func counterValue(reg *obs.Registry, name string) int64 {
	snap := reg.Snapshot()
	return snap.Counters[name]
}

func TestJoinEndpointMatchesEngine(t *testing.T) {
	s, d := newTestServer(t, nil)
	h := s.Handler()

	// Ground truth straight from the engine.
	for qi := 0; qi < 4; qi++ {
		wantPairs, _, err := core.JoinWith(context.Background(),
			core.NewStreamSource(s.cfg.Resident, d[qi:qi+1]), testJoinOptions())
		if err != nil {
			t.Fatal(err)
		}
		w := postJSON(t, h, "/join", JoinRequest{Graph: graphSpecOf(d[qi])})
		if w.Code != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", qi, w.Code, w.Body.String())
		}
		var resp JoinResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Tier != "exact" {
			t.Fatalf("query %d: tier %q, want exact", qi, resp.Tier)
		}
		if resp.Total != len(wantPairs) {
			t.Fatalf("query %d: %d matches, engine found %d", qi, resp.Total, len(wantPairs))
		}
		got := map[int]float64{}
		for _, m := range resp.Matches {
			got[m.Graph] = m.SimP
		}
		for _, p := range wantPairs {
			if simP, ok := got[p.G]; !ok || simP != p.SimP {
				t.Fatalf("query %d: graph %d simP %v, want %v (present=%v)", qi, p.G, simP, p.SimP, ok)
			}
		}
	}
	reg := s.cfg.Obs
	if n := counterValue(reg, obs.Name("server_requests_total", "endpoint", "join", "tier", "exact")); n != 4 {
		t.Fatalf("exact counter = %d, want 4", n)
	}
}

func TestJoinBadRequests(t *testing.T) {
	s, d := newTestServer(t, nil)
	h := s.Handler()
	spec := graphSpecOf(d[0])

	bad := []struct {
		name string
		body string
	}{
		{"malformed", `{"graph": `},
		{"empty", `{}`},
		{"both", `{"query": "SELECT ?x WHERE { ?x p ?y }", "graph": {"vertices": ["a"]}}`},
		{"self-loop", `{"graph": {"vertices": ["a","b"], "edges": [{"from":0,"to":0,"label":"e"}]}}`},
		{"edge-range", `{"graph": {"vertices": ["a","b"], "edges": [{"from":0,"to":9,"label":"e"}]}}`},
		{"bad-alpha", `{"graph": {"vertices": ["a"]}, "alpha": 1.5}`},
		{"bad-tau", `{"graph": {"vertices": ["a"]}, "tau": -1}`},
		{"control-label", "{\"graph\": {\"vertices\": [\"a\\u0001b\"]}}"},
	}
	for _, tc := range bad {
		req := httptest.NewRequest(http.MethodPost, "/join", bytes.NewReader([]byte(tc.body)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, w.Code, w.Body.String())
		}
	}
	if n := counterValue(s.cfg.Obs, obs.Name("server_rejected_total", "endpoint", "join")); n != int64(len(bad)) {
		t.Fatalf("rejected counter = %d, want %d", n, len(bad))
	}
	// A good request still succeeds after the bad ones.
	if w := postJSON(t, h, "/join", JoinRequest{Graph: spec}); w.Code != http.StatusOK {
		t.Fatalf("good request after bad: status %d", w.Code)
	}
}

func TestTierOptionsMapping(t *testing.T) {
	s, _ := newTestServer(t, nil)
	base := s.cfg.Join

	ex := s.tierOptions(tierExact)
	if ex.MaxWorlds != base.MaxWorlds || ex.SampleWorlds != base.SampleWorlds {
		t.Fatal("tierExact must not alter the base options")
	}
	sm := s.tierOptions(tierSampled)
	if sm.MaxWorlds != 1 {
		t.Fatalf("tierSampled options = %+v", sm)
	}
	ap := s.tierOptions(tierApprox)
	if ap.MaxWorlds != 1 || ap.SampleWorlds != -1 {
		t.Fatalf("tierApprox options = %+v", ap)
	}
	// testJoinOptions keeps mappings; /join returns none, so no tier keeps
	// them.
	if !testJoinOptions().KeepMappings {
		t.Fatal("vacuous: the base options do not keep mappings")
	}
	for _, o := range []core.Options{ex, sm, ap} {
		if o.KeepMappings {
			t.Fatalf("a tier keeps mappings: %+v", o)
		}
	}
}

func TestTierForPressure(t *testing.T) {
	s, _ := newTestServer(t, nil)
	now := time.Now()
	if tt := s.tierFor(0, now); tt != tierExact {
		t.Fatalf("pressure 0 → %v", tt)
	}
	if tt := s.tierFor(0.3, now); tt != tierSampled {
		t.Fatalf("pressure 0.3 → %v", tt)
	}
	if tt := s.tierFor(0.9, now); tt != tierApprox {
		t.Fatalf("pressure 0.9 → %v", tt)
	}
}

// TestDegradedTiersStillAnswer checks both degraded tiers produce the same
// accept set on a workload small enough that every rung is decisive.
func TestDegradedTiersStillAnswer(t *testing.T) {
	s, d := newTestServer(t, nil)
	ctx := context.Background()
	for _, tt := range []tier{tierExact, tierSampled, tierApprox} {
		pairs, st, _, err := s.joinWithRetry(ctx, d[0], s.tierOptions(tt))
		if err != nil {
			t.Fatalf("%v: %v", tt, err)
		}
		if st.Pairs != int64(s.cfg.Resident.Len()) {
			t.Fatalf("%v: pairs %d, want %d", tt, st.Pairs, s.cfg.Resident.Len())
		}
		// The degraded rungs are sound: no pair may be accepted whose true
		// SimP is below alpha, so every accepted pair must also be accepted
		// (with certainty) at the exact tier.
		if tt != tierExact {
			exact, _, _, err := s.joinWithRetry(ctx, d[0], s.tierOptions(tierExact))
			if err != nil {
				t.Fatal(err)
			}
			exactSet := map[int]bool{}
			for _, p := range exact {
				exactSet[p.G] = true
			}
			for _, p := range pairs {
				if p.Verdict == core.VerdictApproxBound && !exactSet[p.G] {
					t.Fatalf("%v accepted graph %d with a certified bound but exact tier rejects it", tt, p.G)
				}
			}
		}
	}
}

func TestShedWhenQueueFull(t *testing.T) {
	if err := fault.EnableAll("server.join=delay:300ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	s, d := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxQueue = 1
		c.RequestTimeout = 5 * time.Second
	})
	h := s.Handler()
	spec := graphSpecOf(d[0])

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postJSON(t, h, "/join", JoinRequest{Graph: spec})
			codes[i] = w.Code
			if w.Code == http.StatusTooManyRequests && w.Header().Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		}(i)
	}
	wg.Wait()
	ok, shed := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok=%d shed=%d: want both nonzero", ok, shed)
	}
	reg := s.cfg.Obs
	var tallied int64
	for _, tt := range []string{"exact", "sampled", "approx", "shed"} {
		tallied += counterValue(reg, obs.Name("server_requests_total", "endpoint", "join", "tier", tt))
	}
	if tallied != n {
		t.Fatalf("tier counters sum to %d, want %d", tallied, n)
	}
}

func TestRetryOnTransientFault(t *testing.T) {
	if err := fault.EnableAll("server.join=error#2"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	s, d := newTestServer(t, func(c *Config) {
		c.RetryMax = 3
		c.RetryBackoff = time.Millisecond
	})
	w := postJSON(t, s.Handler(), "/join", JoinRequest{Graph: graphSpecOf(d[0])})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp JoinResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", resp.Retries)
	}
	if n := counterValue(s.cfg.Obs, "server_retries_total"); n != 2 {
		t.Fatalf("server_retries_total = %d, want 2", n)
	}
}

func TestRetryExhaustionFails(t *testing.T) {
	if err := fault.EnableAll("server.join=error"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	s, d := newTestServer(t, func(c *Config) {
		c.RetryMax = 1
		c.RetryBackoff = time.Millisecond
	})
	w := postJSON(t, s.Handler(), "/join", JoinRequest{Graph: graphSpecOf(d[0])})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if n := counterValue(s.cfg.Obs, obs.Name("server_requests_total", "endpoint", "join", "tier", "shed")); n != 1 {
		t.Fatalf("shed counter = %d, want 1", n)
	}
}

func TestHandlerPanicIsContained(t *testing.T) {
	if err := fault.EnableAll("server.join=panic"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	s, d := newTestServer(t, nil)
	w := postJSON(t, s.Handler(), "/join", JoinRequest{Graph: graphSpecOf(d[0])})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if n := counterValue(s.cfg.Obs, "server_panics_total"); n != 1 {
		t.Fatalf("server_panics_total = %d, want 1", n)
	}
	fault.Reset()
	// The process (and server) survive: the next request succeeds.
	if w := postJSON(t, s.Handler(), "/join", JoinRequest{Graph: graphSpecOf(d[0])}); w.Code != http.StatusOK {
		t.Fatalf("request after panic: status %d", w.Code)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	reg := obs.New()
	b := newBreaker(BreakerConfig{
		Window:         4,
		QuarantineRate: 0.5,
		Cooldown:       10 * time.Millisecond,
		Probes:         2,
	}, reg)
	now := time.Now()

	if !b.allowFull(now) {
		t.Fatal("closed breaker must allow full fidelity")
	}
	// Fill the window with quarantines → trips.
	for i := 0; i < 4; i++ {
		b.record(now, time.Millisecond, true)
	}
	if b.State() != breakerOpen {
		t.Fatalf("state %v, want open", b.State())
	}
	if n := counterValue(reg, "server_breaker_trips_total"); n != 1 {
		t.Fatalf("trips = %d, want 1", n)
	}
	if b.allowFull(now) {
		t.Fatal("open breaker must force degraded mode")
	}
	// After cooldown it half-opens and probes.
	later := now.Add(20 * time.Millisecond)
	if !b.allowFull(later) {
		t.Fatal("cooled-down breaker must allow a probe")
	}
	if b.State() != breakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	// A bad probe re-trips.
	b.record(later, time.Millisecond, true)
	if b.State() != breakerOpen {
		t.Fatalf("state after bad probe %v, want open", b.State())
	}
	// Cooldown again; two good probes close it.
	final := later.Add(20 * time.Millisecond)
	if !b.allowFull(final) {
		t.Fatal("probe not allowed after second cooldown")
	}
	b.record(final, time.Millisecond, false)
	b.record(final, time.Millisecond, false)
	if b.State() != breakerClosed {
		t.Fatalf("state after good probes %v, want closed", b.State())
	}
}

func TestBreakerLatencyTrip(t *testing.T) {
	b := newBreaker(BreakerConfig{
		Window:     4,
		LatencyP99: 10 * time.Millisecond,
		Cooldown:   time.Second,
		Probes:     1,
	}, nil)
	now := time.Now()
	for i := 0; i < 4; i++ {
		b.record(now, 50*time.Millisecond, false)
	}
	if b.State() != breakerOpen {
		t.Fatalf("state %v, want open on latency trip", b.State())
	}
}

func TestDrain(t *testing.T) {
	if err := fault.EnableAll("server.join=delay:150ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	s, d := newTestServer(t, func(c *Config) {
		c.DrainTimeout = 2 * time.Second
	})
	h := s.Handler()
	spec := graphSpecOf(d[0])

	// The in-flight request writes into a recorder the test owns. Its
	// handler writes the response before its deferred done(), and Drain
	// waits on done(), so once Drain returns the response is complete and
	// safe to read.
	body, err := json.Marshal(JoinRequest{Graph: spec})
	if err != nil {
		t.Fatal(err)
	}
	inflight := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/join", bytes.NewReader(body))
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(inflight, req)
	}()
	// Drain only once the request holds its admission slot (it then sits in
	// the delay failpoint): a request admitted after BeginDrain is shed.
	for deadline := time.Now().Add(5 * time.Second); s.adm.Inflight() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("request never admitted: inflight %d", s.adm.Inflight())
		}
		time.Sleep(time.Millisecond)
	}

	s.BeginDrain()
	// New work is shed while draining.
	if w := postJSON(t, h, "/join", JoinRequest{Graph: spec}); w.Code != http.StatusTooManyRequests {
		t.Fatalf("request during drain: status %d, want 429", w.Code)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if inflight.Body.Len() == 0 {
		t.Fatal("Drain returned before the in-flight request finished")
	}
	if inflight.Code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d", inflight.Code)
	}
	<-served
}

func TestAskWithoutQA(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := postJSON(t, s.Handler(), "/ask", AskRequest{Question: "who wrote Hamlet"})
	if w.Code != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", w.Code)
	}
}

func TestAskEndpoint(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.QA = qaFunc(func(q string) ([]sparql.Binding, error) {
			return []sparql.Binding{{"x": "hamlet"}}, nil
		})
	})
	w := postJSON(t, s.Handler(), "/ask", AskRequest{Question: "who wrote Hamlet"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp AskResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Bindings) != 1 || resp.Bindings[0]["x"] != "hamlet" {
		t.Fatalf("bindings = %v", resp.Bindings)
	}
}

func TestAskPanicContained(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.QA = qaFunc(func(q string) ([]sparql.Binding, error) {
			panic("qa exploded")
		})
	})
	w := postJSON(t, s.Handler(), "/ask", AskRequest{Question: "boom"})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if n := counterValue(s.cfg.Obs, "server_panics_total"); n == 0 {
		t.Fatal("panic not counted")
	}
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t, nil)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var h healthz
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Breaker != "closed" || h.Resident != s.cfg.Resident.Len() {
		t.Fatalf("healthz = %+v", h)
	}
	s.BeginDrain()
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", w.Code)
	}
}

func TestMetricsEndpointMounted(t *testing.T) {
	s, d := newTestServer(t, nil)
	h := s.Handler()
	postJSON(t, h, "/join", JoinRequest{Graph: graphSpecOf(d[0])})
	req := httptest.NewRequest(http.MethodGet, "/metrics.json", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", w.Code)
	}
	var snap map[string]interface{}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics.json not JSON: %v", err)
	}
}

// qaFunc adapts a function to qa.System for tests.
type qaFunc func(string) ([]sparql.Binding, error)

func (qaFunc) Name() string                                { return "fake" }
func (f qaFunc) Answer(q string) ([]sparql.Binding, error) { return f(q) }

// TestTraceRingKeepsRequestSpans pins the trace ring's budget under a
// shared tracer: a join records one core.join span, not spans per pair, so
// 20 /join and 20 /ask fit a 64-span ring with every qa.answer span retained
// and nothing dropped.
func TestTraceRingKeepsRequestSpans(t *testing.T) {
	tr := obs.NewTracer(64)
	fake := qaFunc(func(string) ([]sparql.Binding, error) {
		return []sparql.Binding{{"x": "hamlet"}}, nil
	})
	s, d := newTestServer(t, func(c *Config) {
		c.Tracer = tr
		c.QA = qa.Instrument(fake, nil, tr)
	})
	h := s.Handler()
	for i := 0; i < 20; i++ {
		if w := postJSON(t, h, "/join", JoinRequest{Graph: graphSpecOf(d[i%len(d)])}); w.Code != http.StatusOK {
			t.Fatalf("/join %d: status %d: %s", i, w.Code, w.Body.String())
		}
		if w := postJSON(t, h, "/ask", AskRequest{Question: "who wrote Hamlet"}); w.Code != http.StatusOK {
			t.Fatalf("/ask %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	counts := map[string]int{}
	for _, sp := range tr.Spans() {
		counts[sp.Name]++
	}
	if counts["qa.answer.fake"] != 20 || counts["core.join"] != 20 || tr.Dropped() != 0 {
		t.Fatalf("trace ring holds %v with %d dropped, want 20 qa.answer.fake and 20 core.join spans, none dropped",
			counts, tr.Dropped())
	}
}
