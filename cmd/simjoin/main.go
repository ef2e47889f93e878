// Command simjoin runs the uncertain graph similarity join (Def. 7) over a
// generated workload and reports the matched pairs and join statistics.
//
//	simjoin -workload qald -tau 1 -alpha 0.9 -mode opt -gn 10 -show 5
//
// Workloads: qald, webq, mm (question/SPARQL pairs through the full NLQ
// pipeline) and er, sf (synthetic uncertain graphs).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"simjoin/internal/core"
	"simjoin/internal/experiments"
	"simjoin/internal/fault"
	"simjoin/internal/graph"
	"simjoin/internal/obs"
	"simjoin/internal/ugraph"
	"simjoin/internal/workload"
)

func main() {
	var (
		wl        = flag.String("workload", "qald", "workload: qald|webq|mm|er|sf")
		tau       = flag.Int("tau", 1, "GED threshold")
		alpha     = flag.Float64("alpha", 0.9, "similarity probability threshold")
		mode      = flag.String("mode", "opt", "pruning mode and its filter chain: css (css) | simj (css,prob) | opt (css,group)")
		gn        = flag.Int("gn", 10, "possible-world group count (opt mode)")
		scale     = flag.Float64("scale", 1.0, "workload scale factor")
		show      = flag.Int("show", 5, "matched pairs to print")
		dump      = flag.String("dump", "", "save the generated QA workload to this directory and exit")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address during the run")
		statsJSON = flag.String("stats-json", "", "write the final Stats and metrics snapshot as JSON to this file")
		traceOut  = flag.String("trace-out", "", "write recorded spans as Chrome trace_event JSON to this file")
		explain   = flag.Bool("explain", false, "print the join's cost model after the run: per-bound evals/prunes/selectivity/ns-per-eval/effective cost, and stage latency P50/P95/P99")
		events    = flag.String("events", "", "write sampled pair-decision events as JSONL to this file ('-' for stdout)")
		eventsN   = flag.Int("events-every", 100, "with -events, sample one pair in N (1 records every pair)")
		progress  = flag.Duration("progress", 0, "log join progress at this interval (e.g. 2s; 0 disables)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile (go tool pprof format) to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (go tool pprof format) to this file at exit")

		pairDeadline = flag.Duration("pair-deadline", 0, "soft per-pair verification deadline; past it the pair degrades down the verdict ladder (0 disables)")
		watchdog     = flag.Duration("watchdog", 0, "log workers stuck on one pair longer than this (0 disables)")
		failpoints   = flag.String("failpoints", "", "comma-separated fault injections, e.g. 'ged.compute=error#3,core.pair=delay:5ms' (also via "+fault.EnvVar+")")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simjoin:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "simjoin:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "simjoin:", err)
				return
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "simjoin:", err)
			}
			f.Close()
		}()
	}

	if *failpoints != "" {
		if err := fault.EnableAll(*failpoints); err != nil {
			fmt.Fprintln(os.Stderr, "simjoin:", err)
			os.Exit(1)
		}
	}
	if fault.Active() != nil {
		fmt.Fprintf(os.Stderr, "simjoin: fault injection active: %v\n", fault.Active())
	}

	if *dump != "" {
		var cfg workload.QAConfig
		switch *wl {
		case "qald":
			cfg = workload.QALD3Config()
		case "webq":
			cfg = workload.WebQConfig(0.35)
		case "mm":
			cfg = workload.MMConfig()
		default:
			fmt.Fprintf(os.Stderr, "simjoin: -dump supports qald|webq|mm, not %q\n", *wl)
			os.Exit(1)
		}
		cfg.Questions = int(float64(cfg.Questions) * *scale)
		cfg.ExtraQueries = int(float64(cfg.ExtraQueries) * *scale)
		w, err := workload.GenerateQA(cfg)
		if err == nil {
			err = w.Save(*dump)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "simjoin:", err)
			os.Exit(1)
		}
		fmt.Printf("saved %d questions, %d queries, %d triples to %s\n",
			len(w.Questions), len(w.Sparql), w.KB.Store.Len(), *dump)
		return
	}

	obsCfg := obsConfig{
		debugAddr:   *debugAddr,
		statsJSON:   *statsJSON,
		traceOut:    *traceOut,
		explain:     *explain,
		events:      *events,
		eventsEvery: *eventsN,
		progress:    *progress,
	}
	robust := robustConfig{
		pairDeadline: *pairDeadline,
		watchdog:     *watchdog,
	}
	// SIGINT/SIGTERM cancel the join context: workers stop at the next
	// pair boundary and run() still flushes -events/-trace-out/-stats-json
	// so an interrupted run leaves usable artifacts behind. A second signal
	// kills the process the default way (stop() restores default handling).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *wl, *tau, *alpha, *mode, *gn, experiments.Scale(*scale), *show, obsCfg, robust); err != nil {
		fmt.Fprintln(os.Stderr, "simjoin:", err)
		os.Exit(1)
	}
}

// robustConfig bundles the graceful-degradation flags.
type robustConfig struct {
	pairDeadline time.Duration
	watchdog     time.Duration
}

// obsConfig bundles the observability flags.
type obsConfig struct {
	debugAddr   string
	statsJSON   string
	traceOut    string
	explain     bool
	events      string
	eventsEvery int
	progress    time.Duration
}

func run(ctx context.Context, wl string, tau int, alpha float64, modeName string, gn int, scale experiments.Scale, show int, oc obsConfig, rc robustConfig) error {
	opts := core.DefaultOptions()
	opts.Tau = tau
	opts.Alpha = alpha
	opts.GroupCount = gn
	opts.PairDeadline = rc.pairDeadline
	opts.Watchdog = rc.watchdog
	if rc.watchdog > 0 {
		opts.Logger = obs.StderrLogger()
	}

	var (
		reg *obs.Registry
		tr  *obs.Tracer
	)
	if oc.debugAddr != "" || oc.statsJSON != "" || oc.explain {
		reg = obs.New()
		opts.Obs = reg
	}
	var eventsFile *os.File
	if oc.events != "" {
		w := os.Stdout
		if oc.events != "-" {
			f, err := os.Create(oc.events)
			if err != nil {
				return err
			}
			eventsFile = f
			defer f.Close()
			w = f
		}
		opts.Events = obs.NewEventLog(w, oc.eventsEvery)
	}
	if oc.debugAddr != "" || oc.traceOut != "" {
		tr = obs.NewTracer(obs.DefaultTraceCapacity)
		opts.Tracer = tr
	}
	if oc.progress > 0 {
		opts.Logger = obs.StderrLogger()
		opts.ProgressEvery = oc.progress
	}
	if oc.debugAddr != "" {
		srv, err := obs.Serve(oc.debugAddr, reg, tr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/\n", srv.Addr)
	}
	switch modeName {
	case "css":
		opts.Mode = core.ModeCSSOnly
	case "simj":
		opts.Mode = core.ModeSimJ
	case "opt":
		opts.Mode = core.ModeSimJOpt
	default:
		return fmt.Errorf("unknown mode %q", modeName)
	}

	var (
		d        []*graph.Graph
		u        []*ugraph.Graph
		describe func(p core.Pair) string
	)
	switch wl {
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
			return err
		}
		p := experiments.Prepare(w)
		d, u = p.D, p.U
		describe = func(pr core.Pair) string {
			return fmt.Sprintf("Q%-4d %q\n       %s", pr.G,
				w.Questions[p.QuestionOf[pr.G]].Text, w.Sparql[pr.Q].Query)
		}
	case "er", "sf":
		cfg := workload.DefaultSyntheticConfig()
		cfg.Count = int(float64(cfg.Count) * float64(scale))
		if wl == "er" {
			d, u = workload.ER(cfg)
		} else {
			d, u = workload.SF(cfg)
		}
		describe = func(pr core.Pair) string {
			return fmt.Sprintf("D[%d] ~ U[%d]", pr.Q, pr.G)
		}
	default:
		return fmt.Errorf("unknown workload %q", wl)
	}

	fmt.Printf("joining |D|=%d certain graphs with |U|=%d uncertain graphs (tau=%d alpha=%v mode=%s)\n",
		len(d), len(u), opts.Tau, opts.Alpha, opts.Mode)
	start := time.Now()
	pairs, st, err := core.JoinContext(ctx, d, u, opts)
	if err != nil {
		// An interrupted run still flushes its artifacts — the partial
		// event log, trace and stats are exactly what a post-mortem needs.
		if st.Cancelled {
			fmt.Fprintf(os.Stderr, "simjoin: interrupted after %d pairs; flushing artifacts\n", st.Pairs)
			if ferr := flushArtifacts(oc, &st, reg, tr, opts.Events, eventsFile); ferr != nil {
				fmt.Fprintln(os.Stderr, "simjoin:", ferr)
			}
		}
		return err
	}
	fmt.Printf("pairs: %d in %v\n", len(pairs), time.Since(start).Round(time.Millisecond))
	// css-pruned includes the index prescreen's skips, which never reach a
	// bound and so are missing from the pruned-by line below.
	fmt.Printf("stats: css-pruned=%d (index-skipped=%d) prob-pruned=%d candidates=%d (ratio %.4f) worlds=%d ged-calls=%d\n",
		st.CSSPruned, st.IndexSkipped, st.ProbPruned, st.Candidates, st.CandidateRatio(), st.WorldsChecked, st.GEDCalls)
	fmt.Printf("verdicts: exact=%d sampled=%d approx=%d undecided=%d (budget-fallbacks=%d deadline-hits=%d)\n",
		st.ExactPairs, st.SampledPairs, st.ApproxPairs, st.SkippedPairs, st.BudgetFallbacks, st.DeadlineHits)
	if len(st.BoundProfile) > 0 {
		// Stage order: the profile lists every stage at its position,
		// including stages that pruned nothing, so stages that ran but
		// pruned nothing still report their zeros (PrunedBy is nil then).
		fmt.Printf("pruned-by:")
		for _, bc := range st.BoundProfile {
			fmt.Printf(" %s=%d", bc.Bound, bc.Prunes)
		}
		fmt.Println()
	}
	if st.QuarantinedPairs > 0 {
		fmt.Printf("quarantined: %d pairs\n", st.QuarantinedPairs)
		for _, q := range st.Quarantined {
			fmt.Printf("  pair (%d,%d): %s\n", q.Q, q.G, q.Reason)
		}
	}
	if oc.explain {
		fmt.Println()
		core.WriteExplain(os.Stdout, &st, reg.Snapshot())
	}
	if err := flushArtifacts(oc, &st, reg, tr, opts.Events, eventsFile); err != nil {
		return err
	}
	for i, pr := range pairs {
		if i >= show {
			fmt.Printf("... and %d more\n", len(pairs)-show)
			break
		}
		fmt.Printf("[%d] SimP=%.3f ged=%d  %s\n", i+1, pr.SimP, pr.Distance, describe(pr))
	}
	return nil
}

// flushArtifacts writes every requested artifact — the event log tail, the
// stats snapshot, and the Chrome trace. It runs on both the success path
// and the interrupted path, so partial runs still leave evidence behind.
func flushArtifacts(oc obsConfig, st *core.Stats, reg *obs.Registry, tr *obs.Tracer, events *obs.EventLog, eventsFile *os.File) error {
	if events != nil {
		if err := events.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "event log: sink error: %v\n", err)
		}
		// Only pairs the index lets through reach the chain and Sample.
		fmt.Fprintf(os.Stderr, "event log: %d of %d chained pairs recorded (1 in %d), %d dropped\n",
			events.Emitted(), events.Seen(), max(oc.eventsEvery, 1), events.Dropped())
		if eventsFile != nil {
			if err := eventsFile.Sync(); err != nil {
				return err
			}
		}
	}
	if oc.statsJSON != "" {
		if err := writeStatsJSON(oc.statsJSON, st, reg); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote stats snapshot to %s\n", oc.statsJSON)
	}
	if oc.traceOut != "" {
		if err := writeTrace(oc.traceOut, tr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s\n", oc.traceOut)
	}
	return nil
}

// writeStatsJSON saves the paper-facing Stats next to the full metrics
// snapshot (Stats counters, per-bound profile, stage and GED histograms).
func writeStatsJSON(path string, st *core.Stats, reg *obs.Registry) error {
	doc := struct {
		Stats   *core.Stats  `json:"stats"`
		Metrics obs.Snapshot `json:"metrics"`
	}{Stats: st, Metrics: reg.Snapshot()}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace saves the recorded spans as Chrome trace_event JSON
// (loadable in chrome://tracing or Perfetto).
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
