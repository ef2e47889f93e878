package simjoin

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§7, Appendix F) at a reduced scale, plus kernel micro-benchmarks and the
// ablations of DESIGN.md. Run everything with:
//
//	go test -bench=. -benchmem
//
// The full-scale tables are printed by cmd/experiments; here each experiment
// is executed end to end so regressions in any stage (generators, NLQ
// pipeline, bounds, join, templates, Q/A) show up as timing or metric
// changes. Custom metrics expose the headline number of each artifact.

import (
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"simjoin/internal/core"
	"simjoin/internal/experiments"
	"simjoin/internal/filter"
	"simjoin/internal/ged"
	"simjoin/internal/graph"
	"simjoin/internal/linker"
	"simjoin/internal/nlq"
	"simjoin/internal/template"
	"simjoin/internal/ugraph"
	"simjoin/internal/workload"
)

// benchScale keeps each experiment iteration around a second or less.
const benchScale = experiments.Scale(0.25)

func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2Datasets(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3EffectTau(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3EffectTau(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9EffectAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9EffectAlpha(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cases, err := experiments.Fig10CaseStudy(benchScale, 3)
		if err != nil {
			b.Fatal(err)
		}
		if len(cases) == 0 {
			b.Fatal("case study produced no templates")
		}
	}
}

func BenchmarkFig11AlphaEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11AlphaEfficiency(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12TauEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12TauEfficiency(benchScale, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13GroupNumber(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13GroupNumber(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14LabelCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14LabelCount(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15FilterComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15FilterComparison(benchScale, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4QASystems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4QASystems(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5MatchProportion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5MatchProportion(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17RelationCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig17RelationCount(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18FailureAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig18FailureAnalysis(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablations (DESIGN.md §4).

func BenchmarkAblationBoundTightness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBoundTightness(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEarlyExit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEarlyExit(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGroupingPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationGroupingPolicy(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationParallelism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationParallelism(benchScale, []int{1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEdgeUncertainty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEdgeUncertainty(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTotalProbabilityBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTotalProbabilityBound(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEngines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEngines(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// Kernel micro-benchmarks.

func benchGraphPair(seed int64, n, e int) (*graph.Graph, *graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"A", "B", "C", "D", "E", "?x"}
	mk := func() *graph.Graph {
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddVertex(labels[rng.Intn(len(labels))])
		}
		for t := 0; t < e*3 && g.NumEdges() < e; t++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, "p")
			}
		}
		return g
	}
	return mk(), mk()
}

func BenchmarkGEDExact(b *testing.B) {
	q, g := benchGraphPair(1, 7, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ged.Distance(q, g)
	}
}

func BenchmarkGEDThreshold(b *testing.B) {
	q, g := benchGraphPair(2, 10, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ged.WithinThreshold(q, g, 3)
	}
}

func BenchmarkCSSLowerBound(b *testing.B) {
	q, g := benchGraphPair(3, 16, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filter.CSSLowerBound(q, g)
	}
}

func BenchmarkCSSLowerBoundUncertain(b *testing.B) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 2
	d, u := workload.ER(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filter.CSSLowerBoundUncertain(d[0], u[0])
	}
}

func BenchmarkSimilarityUpperBound(b *testing.B) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 2
	d, u := workload.ER(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filter.SimilarityUpperBound(d[0], u[0], 2)
	}
}

func BenchmarkWorldEnumeration(b *testing.B) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 1
	_, u := workload.ER(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		u[0].Worlds(func(*graph.Graph, float64) bool { n++; return true })
	}
}

func BenchmarkPartitionWorlds(b *testing.B) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 1
	_, u := workload.ER(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u[0].PartitionWorlds(10)
	}
}

func BenchmarkJoinER(b *testing.B) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 15
	d, u := workload.ER(cfg)
	opts := core.DefaultOptions()
	opts.Tau = 2
	opts.Alpha = 0.5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Join(d, u, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinERRelaxed is the many-world verification join, on the bench
// workload join-er's inputs: core.DefaultOptions() with τ = 3 and α = 0.5
// over workload.ER with 400 × 400 graphs of 7 uncertain vertices (2,187
// worlds each), seed 1. Its candidates are verified over thousands of
// worlds, scored against the relaxed graph's mapping lists (ged.ComputeAll
// against the candidate-restricted relaxation). The graphs are generated
// outside the timer.
func BenchmarkJoinERRelaxed(b *testing.B) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Seed, cfg.Count, cfg.UncertainVertices = 1, 400, 7
	d, u := workload.ER(cfg)
	opts := core.DefaultOptions()
	opts.Tau = 3
	opts.Alpha = 0.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Join(d, u, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNLQInterpret(b *testing.B) {
	w, err := workload.GenerateQA(workload.QALD3Config())
	if err != nil {
		b.Fatal(err)
	}
	_ = w
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := experiments.Prepare(w)
		if len(p.U) == 0 {
			b.Fatal("nothing interpreted")
		}
	}
}

func BenchmarkGEDApproximate(b *testing.B) {
	q, g := benchGraphPair(4, 40, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ged.Approximate(q, g, 4)
	}
}

// BenchmarkJoinERScreen isolates the screening-bound regime: a 240×240 ER
// join at tau=0, alpha=0.9 in CSS-only mode prunes essentially every one of
// its 57.6k pairs, so wall-clock is dominated by the cost of *deciding* pairs
// rather than verifying survivors. Join's index answers most of them with its
// size-run sweep before any bound runs.
func BenchmarkJoinERScreen(b *testing.B) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 240
	d, u := workload.ER(cfg)
	opts := core.DefaultOptions()
	opts.Tau = 0
	opts.Alpha = 0.9
	opts.Mode = core.ModeCSSOnly
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Join(d, u, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// scaledBenchOptions is the template-workload join configuration: one worker,
// so the numbers measure candidate generation and the chain, not
// parallelism. The template workload's uncertain vertices hold the true label
// at confidence 2/3, so exact-copy pairs land near SimP 0.74; alpha 0.5 keeps
// them in the result set.
func scaledBenchOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Tau = 1
	opts.Alpha = 0.5
	opts.Mode = core.ModeSimJ
	opts.Workers = 1
	opts.KeepMappings = false
	return opts
}

// runScaledBench times Join — which builds its index over d on every call —
// on one template workload, reporting pairs/s and the result count alongside
// ns/op.
func runScaledBench(b *testing.B, d []*graph.Graph, u []*ugraph.Graph) {
	b.Helper()
	opts := scaledBenchOptions()
	var results int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs, _, err := core.Join(d, u, opts)
		if err != nil {
			b.Fatal(err)
		}
		results = len(pairs)
	}
	b.ReportMetric(float64(len(d))*float64(len(u))*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
	b.ReportMetric(float64(results), "results")
}

// BenchmarkJoinIndexedScaled is the smoke-size template workload
// (10^3 × 10^2, workload.SmokeScaledConfig).
func BenchmarkJoinIndexedScaled(b *testing.B) {
	d, u := workload.Scaled(workload.SmokeScaledConfig())
	runScaledBench(b, d, u)
}

// BenchmarkJoinIndexedScaledMilestone is the 10^6 × 10^5 milestone template
// workload at the fraction named by SHARD_MILESTONE (e.g. 0.02 for
// 2·10^4 × 2·10^3, 1 for the full run); it skips when the variable is unset,
// since even small fractions are beyond a routine benchmark budget.
func BenchmarkJoinIndexedScaledMilestone(b *testing.B) {
	frac := os.Getenv("SHARD_MILESTONE")
	if frac == "" {
		b.Skip("set SHARD_MILESTONE to a milestone fraction (e.g. 0.02, or 1 for the full 10^6 x 10^5 run)")
	}
	f, err := strconv.ParseFloat(frac, 64)
	if err != nil || f <= 0 || f > 1 {
		b.Fatalf("SHARD_MILESTONE=%q: want a fraction in (0, 1]", frac)
	}
	d, u := workload.Scaled(workload.MilestoneScaledConfig().WithScale(f))
	b.Logf("milestone fraction %v: |D|=%d |U|=%d", f, len(d), len(u))
	runScaledBench(b, d, u)
}

// BenchmarkJoinWebQ is the verification-bound template join: core.Join with
// the experiments' default options (SimJ, τ = 1, α = 0.9, KeepMappings) over
// the WebQ workload at scale 0.7, the join build-webq runs at scale 3, sized
// so one op takes about 100 ms on 2 vCPUs. Most of its time is the verdict
// ladder: each question graph's candidates verified over its few possible
// worlds. The workload is generated and interpreted outside the timer.
func BenchmarkJoinWebQ(b *testing.B) {
	w, err := workload.GenerateQA(workload.WebQConfig(0.7))
	if err != nil {
		b.Fatal(err)
	}
	p := experiments.Prepare(w)
	opts := experiments.DefaultJoinOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Join(p.D, p.U, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(p.D)*len(p.U)), "pairs")
}

func BenchmarkJoinTopK(b *testing.B) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 12
	d, u := workload.ER(cfg)
	opts := core.DefaultOptions()
	opts.Tau = 2
	opts.Alpha = 0.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.JoinTopK(d, u, opts, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeEditDistance(b *testing.B) {
	w, err := workload.GenerateQA(workload.QALD3Config())
	if err != nil {
		b.Fatal(err)
	}
	t1 := nlq.BuildDepTree(w.Questions[0].Text, w.KB.Lexicon)
	t2 := nlq.BuildDepTree(w.Questions[1].Text, w.KB.Lexicon)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nlq.TreeEditDistance(t1, t2)
	}
}

// bestMatchFixture is BenchmarkBestMatch's WebQ(1) template store, lexicon
// and 200 holdout questions, built once per process: -count reruns reuse it.
var bestMatchFixture struct {
	once      sync.Once
	store     *template.Store
	lex       *linker.Lexicon
	questions []string
	err       error
}

// BenchmarkBestMatch measures /ask's template matching: one op is one
// template.Store.BestMatch call at minPhi 0.5, cycling through 200 holdout
// questions against the templates SimJ learns on WebQ(1). Training stays
// outside the timer.
func BenchmarkBestMatch(b *testing.B) {
	f := &bestMatchFixture
	f.once.Do(func() {
		w, err := workload.GenerateQA(workload.WebQConfig(1))
		if err != nil {
			f.err = err
			return
		}
		p := experiments.Prepare(w)
		pairs, _, err := p.Join(experiments.DefaultJoinOptions())
		if err != nil {
			f.err = err
			return
		}
		f.store, _ = p.BuildTemplates(pairs)
		f.lex = w.KB.Lexicon
		for _, q := range w.HoldoutQuestions(1007, 200, 0.2) {
			f.questions = append(f.questions, q.Text)
		}
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bestMatchSink, _ = f.store.BestMatch(f.questions[i%len(f.questions)], f.lex, 0.5)
	}
}

// bestMatchSink keeps BenchmarkBestMatch's calls from being optimised away.
var bestMatchSink template.Match

// BenchmarkFilterChainSig measures steady-state per-pair evaluation of the
// signature-based bounds (the CSS and Prob stages, then the tight bound on
// the worker's scratch and the pair's CSS bound) with warmed memoized
// sub-signatures and a reused scratch — the engine's hot path per candidate
// pair. Expected: 0 allocs/op.
func BenchmarkFilterChainSig(b *testing.B) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 4
	d, u := workload.ER(cfg)
	qsigs := filter.NewQSigs(d)
	gsigs := filter.NewGSigs(u)
	var sc filter.Scratch
	var pc filter.PairContext
	eval := func(qs *filter.QSig, gs *filter.GSig) {
		pc = filter.PairContext{QS: qs, GS: gs, Tau: 2, Alpha: 0.5, GroupCount: 10, Scratch: &sc}
		filter.CSS.Apply(&pc)
		filter.Prob.Apply(&pc)
		filter.TotalProbabilityUpperBoundSigScratch(&sc.BP, qs, gs, pc.Tau, pc.CSSLB)
	}
	for _, qs := range qsigs { // warm the memoized per-condition sub-signatures
		for _, gs := range gsigs {
			eval(qs, gs)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval(qsigs[i%len(qsigs)], gsigs[(i/len(qsigs))%len(gsigs)])
	}
}

// BenchmarkWorldLowerBound measures the per-possible-world CSS pre-check of
// the verification stage: λV recomputed by integer label-id equality, the
// world-invariant constants cached in the PairVerifier. Expected: 0 allocs/op.
func BenchmarkWorldLowerBound(b *testing.B) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 2
	d, u := workload.ER(cfg)
	qs := filter.NewQSig(d[0])
	gs := filter.NewGSig(u[0])
	w, _ := u[0].MostLikelyWorld()
	var pv filter.PairVerifier
	pv.Reset(qs, gs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pv.WorldLowerBound(w)
	}
}

var sinkUG *ugraph.Graph

func BenchmarkUncertainClone(b *testing.B) {
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 1
	_, u := workload.ER(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkUG = u[0].Clone()
	}
}
