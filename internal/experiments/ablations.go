package experiments

import (
	"fmt"
	"time"

	"simjoin/internal/core"
	"simjoin/internal/filter"
	"simjoin/internal/ged"
	"simjoin/internal/graph"
	"simjoin/internal/gstore"
	"simjoin/internal/metrics"
	"simjoin/internal/nlq"
	"simjoin/internal/sparql"
	"simjoin/internal/ugraph"
	"simjoin/internal/workload"
)

// AblationBoundTightness (A1) measures how tight each lower bound is in
// practice: the mean ratio lb/ged over AIDS-like pairs with small true
// distances, plus the fraction of pairs where each bound equals the best
// bound. It validates Theorem 2 empirically (CSS ≥ LM ≥ never better than
// exact).
func AblationBoundTightness(scale Scale) (*metrics.Table, error) {
	cfg := workload.DefaultAIDSConfig()
	cfg.Count = scale.apply(40)
	gs := workload.AIDS(cfg)
	half := len(gs) / 2
	qs, ds := gs[:half], gs[half:]

	kinds := []FilterKind{FilterCount, FilterLM, FilterCSS, FilterPath, FilterSegos, FilterPars}
	sumRatio := map[FilterKind]float64{}
	wins := map[FilterKind]int{}
	n := 0
	for _, q := range qs {
		for _, g := range ds {
			res, err := ged.Compute(q, g, ged.Options{Threshold: 8, MaxStates: 1_000_000})
			if err != nil || res.Exceeded || res.Distance == 0 {
				continue
			}
			n++
			best := -1
			for _, k := range kinds {
				lb := evalFilter(k, q, g, 8)
				sumRatio[k] += float64(lb) / float64(res.Distance)
				if lb > best {
					best = lb
				}
			}
			for _, k := range kinds {
				if evalFilter(k, q, g, 8) == best {
					wins[k]++
				}
			}
		}
	}
	t := metrics.NewTable("filter", "mean lb/ged", "best-bound share")
	for _, k := range kinds {
		t.AddRow(string(k), sumRatio[k]/float64(max1(n)), metrics.Ratio(wins[k], n))
	}
	return t, nil
}

// AblationEarlyExit (A2) compares verification with and without the early
// accept/reject short-circuit.
func AblationEarlyExit(scale Scale) (*metrics.Table, error) {
	p, err := preparedWorkload(scale.qaldConfig())
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("earlyExit", "verifyTime", "worldsChecked", "results")
	for _, disable := range []bool{false, true} {
		opts := DefaultJoinOptions()
		opts.DisableEarlyExit = disable
		opts.Workers = 1
		_, st, err := p.Join(opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(!disable, st.VerifyTime.Round(time.Microsecond), st.WorldsChecked, st.Results)
	}
	return t, nil
}

// AblationGroupingPolicy (A3) compares the cost-model-driven query-aware
// splitting of §6.2 against the query-independent mass policy and no
// grouping at all, on the SF workload.
func AblationGroupingPolicy(scale Scale) (*metrics.Table, error) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = scale.apply(cfg.Count)
	cfg.Seed = 9
	d, u := workload.SF(cfg)

	t := metrics.NewTable("policy", "candRatio", "probPruned")

	// No grouping: plain SimJ.
	opts := DefaultJoinOptions()
	opts.Tau = 2
	opts.Alpha = 0.5
	opts.Mode = core.ModeSimJ
	opts.Workers = 1
	_, st, err := core.Join(d, u, opts)
	if err != nil {
		return nil, err
	}
	t.AddRow("none (SimJ)", st.CandidateRatio(), st.ProbPruned)

	// Query-aware cost model (the shipped SimJ+opt).
	opts.Mode = core.ModeSimJOpt
	opts.GroupCount = 8
	_, st, err = core.Join(d, u, opts)
	if err != nil {
		return nil, err
	}
	t.AddRow("cost-model (SimJ+opt)", st.CandidateRatio(), st.ProbPruned)

	// Query-independent mass split, evaluated through the same grouped
	// bound sum but with ugraph.Graph.PartitionWorlds choosing the splits.
	cand, pruned := massPolicyRatio(d, u, 8, 2, 0.5)
	t.AddRow("by-mass", cand, pruned)
	return t, nil
}

// massPolicyRatio evaluates the grouped probabilistic bound with the
// query-independent largest-mass splits of ugraph.Graph.PartitionWorlds.
func massPolicyRatio(d []*graph.Graph, u []*ugraph.Graph, gn, tau int, alpha float64) (float64, int64) {
	pairs := 0
	candidates := 0
	var pruned int64
	for _, g := range u {
		groups := g.PartitionWorlds(gn)
		for _, q := range d {
			pairs++
			if filter.CSSLowerBoundUncertain(q, g) > tau {
				continue
			}
			ub := 0.0
			for _, gr := range groups {
				ub += filter.GroupUpperBound(q, gr, tau)
			}
			if ub < alpha {
				pruned++
				continue
			}
			candidates++
		}
	}
	return metrics.Ratio(candidates, pairs), pruned
}

// AblationEdgeUncertainty (A5) evaluates the §3.1.1 "general case": joining
// with edge-label uncertainty through reified graphs versus the default
// top-1-predicate collapse, on the questions rendered with misleading
// relation phrases. The reified join can still reach the gold query through
// the second paraphrase's possible worlds.
func AblationEdgeUncertainty(scale Scale) (*metrics.Table, error) {
	cfg := scale.qaldConfig()
	cfg.NoisyPhraseRate = 0.5 // concentrate on the phenomenon under test
	w, err := workload.GenerateQA(cfg)
	if err != nil {
		return nil, err
	}

	// Collapsed representation (the default pipeline).
	p := Prepare(w)

	// Reified representation of the same workload.
	var dReified []*graph.Graph
	for _, e := range w.Sparql {
		dReified = append(dReified, graph.Reify(e.Graph.Graph))
	}
	var uReified []*ugraph.Graph
	var qOf []int
	for qi, q := range w.Questions {
		uq, err := nlq.InterpretReified(q.Text, w.KB.Lexicon)
		if err != nil {
			continue
		}
		uReified = append(uReified, uq.Graph)
		qOf = append(qOf, qi)
	}

	correctNoisy := func(pairs []core.Pair, questionOf []int, sig func(qi int) string) (gold, total int) {
		for _, pr := range pairs {
			q := w.Questions[questionOf[pr.G]]
			if !q.Noisy {
				continue
			}
			total++
			if sig(pr.Q) == q.GoldSig {
				gold++
			}
		}
		return gold, total
	}

	t := metrics.NewTable("representation", "tau", "noisy pairs", "gold-pred pairs", "share")

	opts := DefaultJoinOptions()
	pairs, _, err := p.Join(opts)
	if err != nil {
		return nil, err
	}
	g, tot := correctNoisy(pairs, p.QuestionOf, func(qi int) string { return w.Sparql[qi].Sig })
	t.AddRow("collapsed top-1", opts.Tau, tot, g, metrics.Ratio(g, tot))

	// Reified scale: a predicate substitution is still 1 edit, but entity
	// substitutions stay 1 too; structural edits triple. τ=1 keeps the same
	// "one label off" semantics.
	rOpts := DefaultJoinOptions()
	rOpts.KeepMappings = false
	rPairs, _, err := core.Join(dReified, uReified, rOpts)
	if err != nil {
		return nil, err
	}
	g, tot = correctNoisy(rPairs, qOf, func(qi int) string { return w.Sparql[qi].Sig })
	t.AddRow("reified (edge uncertainty)", rOpts.Tau, tot, g, metrics.Ratio(g, tot))
	return t, nil
}

// AblationTotalProbabilityBound (A6) measures how often the law-of-total-
// probability refinement of Theorem 4 is strictly tighter and what it costs.
func AblationTotalProbabilityBound(scale Scale) (*metrics.Table, error) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = scale.apply(cfg.Count)
	d, u := workload.ER(cfg)
	tau := 2

	t := metrics.NewTable("bound", "time", "mean ub", "strictly tighter")
	evalBound := func(name string, fn func(q *graph.Graph, g *ugraph.Graph) float64) (sum float64, elapsed time.Duration) {
		start := time.Now()
		for _, q := range d {
			for _, g := range u {
				sum += fn(q, g)
			}
		}
		return sum, time.Since(start)
	}
	plainSum, plainT := evalBound("plain", func(q *graph.Graph, g *ugraph.Graph) float64 {
		return filter.SimilarityUpperBound(q, g, tau)
	})
	tighter := 0
	condSum, condT := evalBound("conditioned", func(q *graph.Graph, g *ugraph.Graph) float64 {
		v := filter.TotalProbabilityUpperBound(q, g, tau)
		if v < filter.SimilarityUpperBound(q, g, tau)-1e-12 {
			tighter++
		}
		return v
	})
	n := float64(len(d) * len(u))
	t.AddRow("Theorem 4", plainT.Round(time.Microsecond), plainSum/n, "-")
	t.AddRow("total probability", condT.Round(time.Microsecond), condSum/n, tighter)
	return t, nil
}

// AblationEngines (A8) compares the reference BGP executor against the
// signature-based gstore engine over the SPARQL workload's queries, checking
// result equality while timing both.
func AblationEngines(scale Scale) (*metrics.Table, error) {
	w, err := workload.GenerateQA(scale.qaldConfig())
	if err != nil {
		return nil, err
	}
	buildStart := time.Now()
	idx := gstore.Build(w.KB.Store)
	buildTime := time.Since(buildStart)

	refTime := time.Duration(0)
	gsTime := time.Duration(0)
	solutions := 0
	for _, e := range w.Sparql {
		start := time.Now()
		want, err := sparql.Execute(w.KB.Store, e.Query, 0)
		refTime += time.Since(start)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		got, err := idx.Execute(e.Query, 0)
		gsTime += time.Since(start)
		if err != nil {
			return nil, err
		}
		if len(got) != len(want) {
			return nil, fmt.Errorf("engine disagreement on %s: %d vs %d", e.Query, len(got), len(want))
		}
		solutions += len(want)
	}
	t := metrics.NewTable("engine", "indexBuild", "queryTime", "queries", "solutions")
	t.AddRow("reference executor", time.Duration(0), refTime.Round(time.Microsecond), len(w.Sparql), solutions)
	t.AddRow("gstore signatures", buildTime.Round(time.Microsecond), gsTime.Round(time.Microsecond), len(w.Sparql), solutions)
	return t, nil
}

// AblationParallelism (A4) measures join wall-clock as worker count grows.
func AblationParallelism(scale Scale, workerCounts []int) (*metrics.Table, error) {
	p, err := preparedWorkload(scale.webqConfig())
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("workers", "wallClock", "results")
	for _, wkr := range workerCounts {
		opts := DefaultJoinOptions()
		opts.Workers = wkr
		start := time.Now()
		pairs, _, err := p.Join(opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(wkr, time.Since(start).Round(time.Microsecond), len(pairs))
	}
	return t, nil
}
