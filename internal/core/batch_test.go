package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"simjoin/internal/filter"
	"simjoin/internal/ged"
	"simjoin/internal/graph"
	"simjoin/internal/nlq"
	"simjoin/internal/ugraph"
	"simjoin/internal/workload"
)

// webqInput interprets a WebQ workload at the given scale the way
// experiments.Prepare does: the SPARQL graphs as D, and every question the
// NLQ pipeline interprets as U.
func webqInput(t *testing.T, scale float64) ([]*graph.Graph, []*ugraph.Graph) {
	t.Helper()
	w, err := workload.GenerateQA(workload.WebQConfig(scale))
	if err != nil {
		t.Fatal(err)
	}
	var d []*graph.Graph
	for _, e := range w.Sparql {
		d = append(d, e.Graph.Graph)
	}
	var u []*ugraph.Graph
	for _, q := range w.Questions {
		if uq, err := nlq.Interpret(q.Text, w.KB.Lexicon); err == nil {
			u = append(u, uq.Graph)
		}
	}
	return d, u
}

// referencePair decides one pair the way a pair verified on its own would:
// g's worlds — or, under SimJ+opt, the worlds of the groups the grouped bound
// keeps, high-mass first — enumerated afresh through Worlds, ged.Compute on
// every world, the first world of the least distance cloned as the witness
// with Compute's mapping, and early accept/reject on the accumulated mass.
// A world the CSS pre-check would rule out gets its GED too, which finds it
// beyond τ. ok is false when the pair is not a result.
func referencePair(t *testing.T, q *graph.Graph, g *ugraph.Graph, qs *filter.QSig, gs *filter.GSig, opts Options) (Pair, bool) {
	t.Helper()
	if filter.CSSLowerBoundUncertainSig(qs, gs) > opts.Tau {
		return Pair{}, false
	}
	groups := []ugraph.Group{{G: g, Mass: gs.Mass}}
	if opts.Mode == ModeSimJOpt {
		pc := filter.PairContext{QS: qs, GS: gs, Tau: opts.Tau, Alpha: opts.Alpha,
			GroupCount: opts.GroupCount, Scratch: new(filter.Scratch)}
		out := filter.Group.Apply(&pc)
		if out.Pruned {
			return Pair{}, false
		}
		groups = out.Groups
		sort.SliceStable(groups, func(i, j int) bool { return groups[i].Mass > groups[j].Mass })
	}
	alphaLo := opts.Alpha - filter.MassSlack
	remaining := 0.0
	for _, gr := range groups {
		remaining += gr.Mass
	}
	best := Pair{Distance: opts.Tau + 1, Verdict: VerdictExact}
	simP := 0.0
	decided, accepted := false, false
	for _, gr := range groups {
		if decided {
			break
		}
		gr.G.Worlds(func(w *graph.Graph, p float64) bool {
			remaining -= p
			r, err := ged.Compute(q, w, ged.Options{Threshold: opts.Tau})
			if err != nil {
				t.Fatalf("reference GED: %v", err)
			}
			if !r.Exceeded {
				simP += p
				if r.Distance < best.Distance {
					best.Distance, best.World, best.Mapping = r.Distance, w.Clone(), r.Mapping
				}
			}
			switch {
			case simP >= alphaLo:
				decided, accepted = true, true
			case simP+remaining < alphaLo:
				decided = true
			}
			return !decided
		})
	}
	if !decided {
		accepted = simP >= alphaLo
	}
	if !accepted {
		return Pair{}, false
	}
	best.SimP = simP
	return best, true
}

// TestBatchMatchesPerPairReference checks the per-graph batch — one shared
// copy of each world the results of a graph report, the queries' GED sides
// prepared once per index, no CSS pre-check on a single-world group —
// against referencePair on every pair of a WebQ input (single- and
// multi-world question graphs, results sharing worlds), an ER input (81
// worlds per graph, scored against relaxed lists) and a candidate input
// (queries larger than their graphs, with labels outside the uncertain
// vertices' candidates, scored against relaxed lists), in all three modes with
// KeepMappings on. Every result must equal the reference's in Distance,
// SimP bits, Verdict, World labels and Mapping, the two result sets must be
// equal, and the results of one graph that report the same world must share
// one *graph.Graph.
func TestBatchMatchesPerPairReference(t *testing.T) {
	webD, webU := webqInput(t, 0.05)
	cfg := workload.DefaultSyntheticConfig()
	cfg.Count = 16
	erD, erU := workload.ER(cfg)
	cD, cU := candidateWorkload(67, 8, 2)
	for _, in := range []struct {
		name  string
		d     []*graph.Graph
		u     []*ugraph.Graph
		tau   int
		alpha float64
	}{
		{"webq", webD, webU, 1, 0.5},
		{"er", erD, erU, 3, 0.3},
		{"candidates", cD, cU, 2, 0.3},
	} {
		qsigs, gsigs := filter.NewQSigs(in.d), filter.NewGSigs(in.u)
		for _, mode := range []Mode{ModeCSSOnly, ModeSimJ, ModeSimJOpt} {
			ctxt := fmt.Sprintf("%s %v", in.name, mode)
			opts := Options{Tau: in.tau, Alpha: in.alpha, Mode: mode, GroupCount: 4, Workers: 2, KeepMappings: true}
			got, st, err := Join(in.d, in.u, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := map[[2]int]Pair{}
			for gi, g := range in.u {
				for qi, q := range in.d {
					if p, ok := referencePair(t, q, g, qsigs[qi], gsigs[gi], opts); ok {
						want[[2]int{qi, gi}] = p
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d results, reference %d", ctxt, len(got), len(want))
			}
			// shared[G][world labels] is the graph the first result of G
			// reporting that world points at.
			shared := map[int]map[string]*graph.Graph{}
			var singleWorld, multiWorld, reused int
			for _, p := range got {
				r, ok := want[[2]int{p.Q, p.G}]
				labels := fmt.Sprint(p.World.VertexLabels())
				switch {
				case !ok:
					t.Fatalf("%s: pair (%d,%d) is not a reference result", ctxt, p.Q, p.G)
				case p.Verdict != r.Verdict:
					t.Fatalf("%s pair (%d,%d): verdict %v, reference %v", ctxt, p.Q, p.G, p.Verdict, r.Verdict)
				case math.Float64bits(p.SimP) != math.Float64bits(r.SimP):
					t.Fatalf("%s pair (%d,%d): SimP %v, reference %v", ctxt, p.Q, p.G, p.SimP, r.SimP)
				case p.Distance != r.Distance:
					t.Fatalf("%s pair (%d,%d): Distance %d, reference %d", ctxt, p.Q, p.G, p.Distance, r.Distance)
				case !reflect.DeepEqual(p.World.VertexLabelIDs(), r.World.VertexLabelIDs()) ||
					labels != fmt.Sprint(r.World.VertexLabels()):
					t.Fatalf("%s pair (%d,%d): World %s, reference %v", ctxt, p.Q, p.G, labels, r.World.VertexLabels())
				case !reflect.DeepEqual(p.Mapping, r.Mapping):
					t.Fatalf("%s pair (%d,%d): Mapping %v, reference %v", ctxt, p.Q, p.G, p.Mapping, r.Mapping)
				}
				if in.u[p.G].WorldCountFloat() == 1 {
					singleWorld++
				} else {
					multiWorld++
				}
				if shared[p.G] == nil {
					shared[p.G] = map[string]*graph.Graph{}
				}
				switch w := shared[p.G][labels]; {
				case w == nil:
					shared[p.G][labels] = p.World
				case w != p.World:
					t.Fatalf("%s pair (%d,%d): world %s is not the graph's shared copy", ctxt, p.Q, p.G, labels)
				default:
					reused++
				}
			}
			// On WebQ a question graph matches many queries, so results
			// share worlds; an ER graph matches only its seed's query, and
			// its 81 worlds are scored against relaxed lists, as are the
			// candidate workload's 16 to 243 worlds against larger queries.
			if multiWorld == 0 || (in.name == "webq" && (singleWorld == 0 || reused == 0)) ||
				(in.name != "webq" && st.RelaxedPairs == 0) {
				t.Fatalf("%s: vacuous: %d results on single-world graphs, %d on multi-world ones, %d sharing a world, %d relaxed pairs",
					ctxt, singleWorld, multiWorld, reused, st.RelaxedPairs)
			}
		}
	}
}
