// Command simjoind is the resident join service: it loads a workload once,
// keeps the uncertain side's signatures warm in memory, and then
// serves delta joins (POST /join) and template-based question answering
// (POST /ask) behind the overload envelope of internal/server — bounded
// admission, pressure-driven degradation down the verdict ladder, retry on
// transient faults, a verification-storm circuit breaker, and graceful
// drain on SIGTERM (DESIGN.md §14).
//
//	simjoind -workload er -tau 2 -alpha 0.5 -addr :8080
//	curl -s localhost:8080/sample | curl -s -d @- localhost:8080/join
//
// QA workloads (qald, webq, mm) additionally train the template store at
// boot so /ask answers questions; synthetic workloads (er, sf) serve /join
// only and /ask returns 501.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"simjoin/internal/core"
	"simjoin/internal/experiments"
	"simjoin/internal/fault"
	"simjoin/internal/filter"
	"simjoin/internal/graph"
	"simjoin/internal/obs"
	"simjoin/internal/qa"
	"simjoin/internal/server"
	"simjoin/internal/ugraph"
	"simjoin/internal/workload"
)

func main() {
	var (
		wl      = flag.String("workload", "er", "workload: er|sf|qald|webq|mm")
		tau     = flag.Int("tau", 2, "GED threshold")
		alpha   = flag.Float64("alpha", 0.5, "similarity probability threshold")
		filters = flag.String("filters", "", "comma-separated filter chain overriding the mode's default bound order, e.g. 'count,css,prob' (bounds: "+strings.Join(filter.BoundNames(), ", ")+"); per-request \"filters\" fields override this")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		minPhi  = flag.Float64("phi", 0.5, "minimum template matching proportion (QA workloads)")

		addr     = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripted boots)")

		maxInFlight = flag.Int("max-inflight", 4, "concurrently executing requests")
		maxQueue    = flag.Int("max-queue", 0, "admission queue bound (0 = 4×max-inflight)")
		reqTimeout  = flag.Duration("request-timeout", 10*time.Second, "per-request deadline")
		drainBudget = flag.Duration("drain-timeout", 0, "graceful-drain budget on SIGTERM (0 = request-timeout + 1s)")

		degradeSampled = flag.Float64("degrade-sampled", 0.25, "queue pressure at which exact enumeration is skipped")
		degradeApprox  = flag.Float64("degrade-approx", 0.6, "queue pressure at which only certified approx bounds are served")
		retryMax       = flag.Int("retry-max", 2, "retries on transient injected faults")
		retryBackoff   = flag.Duration("retry-backoff", 5*time.Millisecond, "base retry backoff, doubled per attempt")

		brkWindow     = flag.Int("breaker-window", 0, "circuit-breaker outcome window (0 disables the breaker)")
		brkQuarantine = flag.Float64("breaker-quarantine", 0.5, "windowed quarantine-rate trip threshold")
		brkP99        = flag.Duration("breaker-p99", 0, "windowed P99 latency trip threshold (0 = quarantine signal only)")
		brkCooldown   = flag.Duration("breaker-cooldown", 2*time.Second, "open-state cooldown before probing")
		brkProbes     = flag.Int("breaker-probes", 3, "healthy probes that close a half-open breaker")

		statsJSON  = flag.String("stats-json", "", "write the final metrics snapshot as JSON to this file at shutdown")
		traceOut   = flag.String("trace-out", "", "write recorded spans as Chrome trace_event JSON at shutdown")
		events     = flag.String("events", "", "write sampled pair-decision events as JSONL to this file")
		eventsN    = flag.Int("events-every", 100, "with -events, sample one pair in N")
		failpoints = flag.String("failpoints", "", "comma-separated fault injections (also via "+fault.EnvVar+")")
	)
	flag.Parse()

	if *failpoints != "" {
		if err := fault.EnableAll(*failpoints); err != nil {
			fatal(err)
		}
	}
	if fault.Active() != nil {
		fmt.Fprintf(os.Stderr, "simjoind: fault injection active: %v\n", fault.Active())
	}

	reg := obs.New()
	tr := obs.NewTracer(obs.DefaultTraceCapacity)

	var eventLog *obs.EventLog
	var eventsFile *os.File
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			fatal(err)
		}
		eventsFile = f
		eventLog = obs.NewEventLog(f, *eventsN)
	}

	opts := core.DefaultOptions()
	opts.Tau = *tau
	opts.Alpha = *alpha
	if *filters != "" {
		chain, err := filter.ParseChain(*filters)
		if err != nil {
			fatal(err)
		}
		opts.FilterChain = chain
	}

	fmt.Fprintf(os.Stderr, "simjoind: loading workload %q (scale %v)...\n", *wl, *scale)
	start := time.Now()
	samples, resident, qsys, err := loadWorkload(*wl, experiments.Scale(*scale), *minPhi, reg, tr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "simjoind: resident side ready: %d uncertain graphs, %d sample queries, qa=%v (%v)\n",
		resident.Len(), len(samples), qsys != nil, time.Since(start).Round(time.Millisecond))

	srv := server.New(server.Config{
		Resident:       resident,
		Join:           opts,
		QA:             qsys,
		Samples:        samples,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drainBudget,
		DegradeSampled: *degradeSampled,
		DegradeApprox:  *degradeApprox,
		RetryMax:       *retryMax,
		RetryBackoff:   *retryBackoff,
		Breaker: server.BreakerConfig{
			Window:         *brkWindow,
			QuarantineRate: *brkQuarantine,
			LatencyP99:     *brkP99,
			Cooldown:       *brkCooldown,
			Probes:         *brkProbes,
		},
		Obs:    reg,
		Tracer: tr,
		Events: eventLog,
		Logger: obs.StderrLogger(),
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "simjoind: serving on http://%s/ (POST /join, POST /ask, GET /healthz, GET /sample)\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// Graceful drain: on SIGTERM/SIGINT stop accepting (admission sheds with
	// 429), let in-flight requests finish within the drain budget, then shut
	// the listener down and flush every artifact.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "simjoind: %v: draining...\n", sig)
	case err := <-serveErr:
		fatal(err)
	}

	drainStart := time.Now()
	drainErr := srv.Drain(context.Background())
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "simjoind: %v\n", drainErr)
	} else {
		fmt.Fprintf(os.Stderr, "simjoind: drained cleanly in %v\n", time.Since(drainStart).Round(time.Millisecond))
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = httpSrv.Shutdown(shutCtx)
	cancel()

	if err := flushArtifacts(*statsJSON, *traceOut, reg, tr, eventLog, eventsFile, drainErr == nil); err != nil {
		fatal(err)
	}
	if drainErr != nil {
		os.Exit(1)
	}
}

// loadWorkload builds the service's state: the resident uncertain side, the
// sample query graphs for /sample, and (QA workloads only) a trained
// template system for /ask.
func loadWorkload(wl string, scale experiments.Scale, minPhi float64, reg *obs.Registry, tr *obs.Tracer) ([]*graph.Graph, *core.Resident, qa.System, error) {
	switch wl {
	case "er", "sf":
		cfg := workload.DefaultSyntheticConfig()
		cfg.Count = int(float64(cfg.Count) * float64(scale))
		var d []*graph.Graph
		var u []*ugraph.Graph
		if wl == "er" {
			d, u = workload.ER(cfg)
		} else {
			d, u = workload.SF(cfg)
		}
		return d, core.NewResident(u), nil, nil
	case "qald", "webq", "mm":
		var cfg workload.QAConfig
		switch wl {
		case "qald":
			cfg = workload.QALD3Config()
		case "webq":
			cfg = workload.WebQConfig(0.35)
		default:
			cfg = workload.MMConfig()
		}
		cfg.Questions = int(float64(cfg.Questions) * float64(scale))
		cfg.ExtraQueries = int(float64(cfg.ExtraQueries) * float64(scale))
		w, err := workload.GenerateQA(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		if reg != nil {
			w.KB.Store.SetObs(reg)
		}
		p := experiments.Prepare(w)
		fmt.Fprintln(os.Stderr, "simjoind: learning templates via SimJ...")
		pairs, _, err := p.Join(experiments.DefaultJoinOptions())
		if err != nil {
			return nil, nil, nil, err
		}
		store, _ := p.BuildTemplates(pairs)
		fmt.Fprintf(os.Stderr, "simjoind: learned %d templates from %d pairs\n", store.Len(), len(pairs))
		sys := qa.Instrument(&qa.TemplateSystem{
			Store: store, Lex: w.KB.Lexicon, KB: w.KB.Store, MinPhi: minPhi,
		}, reg, tr)
		return p.D, core.NewResident(p.U), sys, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown workload %q", wl)
	}
}

// flushArtifacts writes the shutdown snapshot: metrics (with a drain-status
// marker), the Chrome trace, and the event log's tail.
func flushArtifacts(statsPath, tracePath string, reg *obs.Registry, tr *obs.Tracer, ev *obs.EventLog, evFile *os.File, cleanDrain bool) error {
	if ev != nil {
		if err := ev.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "simjoind: event log sink error: %v\n", err)
		}
		fmt.Fprintf(os.Stderr, "simjoind: event log: %d emitted, %d dropped\n", ev.Emitted(), ev.Dropped())
	}
	if evFile != nil {
		if err := evFile.Sync(); err != nil {
			return err
		}
		if err := evFile.Close(); err != nil {
			return err
		}
	}
	if statsPath != "" {
		doc := struct {
			CleanDrain bool         `json:"cleanDrain"`
			Metrics    obs.Snapshot `json:"metrics"`
		}{CleanDrain: cleanDrain, Metrics: reg.Snapshot()}
		f, err := os.Create(statsPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "simjoind: wrote stats snapshot to %s\n", statsPath)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "simjoind: wrote Chrome trace to %s\n", tracePath)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simjoind:", err)
	os.Exit(1)
}
