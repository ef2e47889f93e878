// Command experiments regenerates the paper's tables and figures. Each
// subcommand corresponds to one artifact of §7 / Appendix F (see DESIGN.md's
// experiment index):
//
//	experiments [-scale f] table2|table3|table4|table5
//	experiments [-scale f] fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig17|fig18
//	experiments [-scale f] ablations
//	experiments [-scale f] all
//
// -scale multiplies workload sizes (1.0 = repository default; larger values
// approach the paper's scale at the cost of runtime).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"simjoin/internal/experiments"
	"simjoin/internal/metrics"
	"simjoin/internal/obs"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address")
	flag.Parse()
	args := flag.Args()
	if len(args) != 1 {
		usage()
		os.Exit(2)
	}
	if *debugAddr != "" {
		reg := obs.New()
		tr := obs.NewTracer(obs.DefaultTraceCapacity)
		experiments.Observe(reg, tr)
		srv, err := obs.Serve(*debugAddr, reg, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/\n", srv.Addr)
	}
	s := experiments.Scale(*scale)
	if err := run(args[0], s); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: experiments [-scale f] <exp>
  table2   dataset statistics            table3  effect of GED threshold tau
  table4   Q/A systems comparison        table5  effect of match proportion phi
  fig9     precision/answers vs alpha    fig10   case study (pairs+templates)
  fig11    efficiency vs alpha (WebQ)    fig12   efficiency vs tau (ER)
  fig13    effect of group number (SF)   fig14   effect of |L(v)| (ER)
  fig15    filter comparison (AIDS)      fig17   correct pairs by #relations
  fig18    failure analysis              ablations  A1..A4
  all      everything above`)
}

func run(name string, s experiments.Scale) error {
	type tableExp struct {
		title string
		fn    func() (*metrics.Table, error)
	}
	exps := map[string]tableExp{
		"table2": {"Table 2: dataset statistics", func() (*metrics.Table, error) { return experiments.Table2Datasets(s) }},
		"table3": {"Table 3: effect of GED threshold tau (alpha=0.9)", func() (*metrics.Table, error) { return experiments.Table3EffectTau(s) }},
		"table4": {"Table 4: Q/A results compared with other systems", func() (*metrics.Table, error) { return experiments.Table4QASystems(s) }},
		"table5": {"Table 5: effect of matching proportion phi", func() (*metrics.Table, error) { return experiments.Table5MatchProportion(s) }},
		"fig9":   {"Fig 9: effect of similarity probability threshold alpha (tau=1)", func() (*metrics.Table, error) { return experiments.Fig9EffectAlpha(s) }},
		"fig11":  {"Fig 11: effect of alpha on efficiency (WebQ)", func() (*metrics.Table, error) { return experiments.Fig11AlphaEfficiency(s) }},
		"fig12":  {"Fig 12: effect of tau on efficiency (ER)", func() (*metrics.Table, error) { return experiments.Fig12TauEfficiency(s, 5) }},
		"fig13":  {"Fig 13: effect of group number GN (SF)", func() (*metrics.Table, error) { return experiments.Fig13GroupNumber(s) }},
		"fig14":  {"Fig 14: effect of |L(v)| (ER)", func() (*metrics.Table, error) { return experiments.Fig14LabelCount(s) }},
		"fig15":  {"Fig 15: comparison with existing filters (AIDS)", func() (*metrics.Table, error) { return experiments.Fig15FilterComparison(s, 5) }},
		"fig17":  {"Fig 17: proportion of correct pairs by relation count k", func() (*metrics.Table, error) { return experiments.Fig17RelationCount(s) }},
		"fig18":  {"Fig 18: failure analysis (tau=1)", func() (*metrics.Table, error) { return experiments.Fig18FailureAnalysis(s) }},
	}

	printTable := func(title string, t *metrics.Table) error {
		fmt.Printf("== %s ==\n", title)
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}

	switch name {
	case "fig10":
		cases, err := experiments.Fig10CaseStudy(s, 5)
		if err != nil {
			return err
		}
		fmt.Println("== Fig 10/16: case study — similar pairs and generated templates ==")
		for i, c := range cases {
			fmt.Printf("--- pair %d ---\n%s\n", i+1, c)
		}
		fmt.Println()
		return nil
	case "ablations":
		return runAblations(s, printTable)
	case "all":
		for _, key := range []string{"table2", "table3", "fig9", "fig10", "fig11", "fig12",
			"fig13", "fig14", "fig15", "table4", "table5", "fig17", "fig18"} {
			if key == "fig10" {
				if err := run("fig10", s); err != nil {
					return err
				}
				continue
			}
			e := exps[key]
			t, err := e.fn()
			if err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			if err := printTable(e.title, t); err != nil {
				return err
			}
		}
		return runAblations(s, printTable)
	default:
		e, ok := exps[name]
		if !ok {
			usage()
			return fmt.Errorf("unknown experiment %q", name)
		}
		t, err := e.fn()
		if err != nil {
			return err
		}
		return printTable(e.title, t)
	}
}

func runAblations(s experiments.Scale, printTable func(string, *metrics.Table) error) error {
	type abl struct {
		title string
		fn    func() (*metrics.Table, error)
	}
	for _, a := range []abl{
		{"Ablation A1: lower bound tightness", func() (*metrics.Table, error) { return experiments.AblationBoundTightness(s) }},
		{"Ablation A2: verification early exit", func() (*metrics.Table, error) { return experiments.AblationEarlyExit(s) }},
		{"Ablation A3: possible-world grouping policy", func() (*metrics.Table, error) { return experiments.AblationGroupingPolicy(s) }},
		{"Ablation A4: join parallelism", func() (*metrics.Table, error) {
			return experiments.AblationParallelism(s, []int{1, 2, runtime.GOMAXPROCS(0)})
		}},
		{"Ablation A5: edge-label uncertainty (reified join)", func() (*metrics.Table, error) { return experiments.AblationEdgeUncertainty(s) }},
		{"Ablation A6: total-probability bound", func() (*metrics.Table, error) { return experiments.AblationTotalProbabilityBound(s) }},
		{"Ablation A8: SPARQL engines (reference vs gstore signatures)", func() (*metrics.Table, error) { return experiments.AblationEngines(s) }},
	} {
		t, err := a.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", a.title, err)
		}
		if err := printTable(a.title, t); err != nil {
			return err
		}
	}
	return nil
}
