package template_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"simjoin/internal/experiments"
	"simjoin/internal/linker"
	"simjoin/internal/nlq"
	"simjoin/internal/template"
	"simjoin/internal/workload"
)

// The reference below is the matcher as it was before questions were
// analysed once per BestMatch call: every template redoes the question's
// side (collapsing, lexicon lookups, dependency tree, keyword set, semantic
// graph), and BestMatch scores every template. It shares no code with the
// package's matcher beyond nlq and the linker, so it is the oracle for both
// the analysis split and the keyword gate.

func refCollapseQuestion(question string, lex *linker.Lexicon) []string {
	toks := nlq.Tokenize(question)
	var units []string
	i := 0
	for i < len(toks) {
		if lex != nil {
			if _, n := lex.MatchEntity(toks, i); n > 0 {
				units = append(units, strings.Join(toks[i:i+n], " "))
				i += n
				continue
			}
		}
		units = append(units, toks[i])
		i++
	}
	return units
}

func refAlignTokens(tmplTokens, units []string, compatible func(i, j int) bool) (captures map[int]string, covered, cost int) {
	n, m := len(tmplTokens), len(units)
	cellCost := func(i, j int) int {
		if tmplTokens[i] == nlq.Slot {
			if compatible(i, j) {
				return 0
			}
			return 1
		}
		if strings.EqualFold(tmplTokens[i], units[j]) {
			return 0
		}
		return 1
	}
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := n; i >= 0; i-- {
		for j := m; j >= 0; j-- {
			switch {
			case i == n && j == m:
				dp[i][j] = 0
			case i == n:
				dp[i][j] = m - j
			case j == m:
				dp[i][j] = n - i
			default:
				best := dp[i+1][j+1] + cellCost(i, j)
				if v := dp[i+1][j] + 1; v < best {
					best = v
				}
				if v := dp[i][j+1] + 1; v < best {
					best = v
				}
				dp[i][j] = best
			}
		}
	}
	captures = make(map[int]string)
	i, j := 0, 0
	for i < n || j < m {
		switch {
		case i < n && j < m && dp[i][j] == dp[i+1][j+1]+cellCost(i, j):
			if tmplTokens[i] == nlq.Slot {
				if compatible(i, j) {
					captures[i] = units[j]
					covered++
				}
			} else if strings.EqualFold(tmplTokens[i], units[j]) {
				covered++
			}
			i++
			j++
		case i < n && dp[i][j] == dp[i+1][j]+1:
			i++
		default:
			j++
		}
	}
	return captures, covered, dp[0][0]
}

func refMatchQuestion(t *template.Template, question string, lex *linker.Lexicon) template.Match {
	units := refCollapseQuestion(question, lex)
	var fillable []bool
	if lex != nil {
		fillable = make([]bool, len(units))
		for j, u := range units {
			_, isClass := lex.LookupClass(u)
			fillable[j] = isClass || len(lex.LinkEntity(u)) > 0
		}
	}
	roleAt := make(map[int]template.SlotRole, len(t.Slots))
	for _, s := range t.Slots {
		roleAt[s.NLIndex] = s.Role
	}
	compatible := func(i, j int) bool {
		if fillable != nil && !fillable[j] {
			return false
		}
		if lex == nil {
			return true
		}
		_, isClass := lex.LookupClass(units[j])
		if roleAt[i] == template.SlotClass {
			return isClass
		}
		return len(lex.LinkEntity(units[j])) > 0
	}
	qTree := nlq.BuildDepTree(question, lex)
	ted := nlq.TreeEditDistance(qTree, nlq.BuildDepTree(strings.Join(t.Tokens, " "), nil))
	captures, covered, _ := refAlignTokens(t.Tokens, units, compatible)

	m := template.Match{Template: t, TED: ted, Fillers: make([]string, len(t.Slots))}
	if len(units) > 0 {
		m.Phi = float64(covered) / float64(len(units))
	}
	for si, s := range t.Slots {
		if cap, ok := captures[s.NLIndex]; ok {
			m.Fillers[si] = cap
		}
	}
	have := make(map[string]bool, len(units))
	for _, u := range units {
		have[strings.ToLower(u)] = true
	}
	m.KeywordsCovered = true
	for _, tok := range t.Tokens {
		if tok == nlq.Slot {
			continue
		}
		if !have[strings.ToLower(tok)] {
			m.KeywordsCovered = false
			break
		}
	}
	if lex != nil && m.KeywordsCovered {
		tmplHas := make(map[string]bool, len(t.Tokens))
		for _, tok := range t.Tokens {
			tmplHas[strings.ToLower(tok)] = true
		}
		tainted := refUncoveredRelationArgs(question, lex, tmplHas)
		for _, f := range m.Fillers {
			if f != "" && tainted[strings.ToLower(f)] {
				m.KeywordsCovered = false
				break
			}
		}
	}
	return m
}

func refUncoveredRelationArgs(question string, lex *linker.Lexicon, tmplHas map[string]bool) map[string]bool {
	tainted := make(map[string]bool)
	sg, err := nlq.Extract(question, lex)
	if err != nil {
		return tainted
	}
	for _, r := range sg.Rels {
		covered := true
		for _, w := range strings.Fields(r.Phrase) {
			if !nlq.IsStopword(w) && !tmplHas[strings.ToLower(w)] {
				covered = false
				break
			}
		}
		if covered {
			continue
		}
		for _, ai := range []int{r.Arg1, r.Arg2} {
			arg := sg.Args[ai]
			tainted[strings.ToLower(arg.Surface)] = true
			fields := strings.Fields(arg.Surface)
			tainted[strings.ToLower(fields[len(fields)-1])] = true
		}
	}
	return tainted
}

func refBestMatch(s *template.Store, question string, lex *linker.Lexicon, minPhi float64) (template.Match, error) {
	if s.Len() == 0 {
		return template.Match{}, fmt.Errorf("template: store is empty")
	}
	var best template.Match
	found := false
	for _, t := range s.All() {
		m := refMatchQuestion(t, question, lex)
		if m.Phi < minPhi-1e-9 || !m.Complete() {
			continue
		}
		if !found || refBetter(m, best) {
			best = m
			found = true
		}
	}
	if !found {
		return template.Match{}, fmt.Errorf("template: no template reaches phi >= %v for %q", minPhi, question)
	}
	return best, nil
}

func refBetter(a, b template.Match) bool {
	if a.TED != b.TED {
		return a.TED < b.TED
	}
	if a.Phi != b.Phi {
		return a.Phi > b.Phi
	}
	return a.Template.Support > b.Template.Support
}

// trainedStore learns a workload's templates the way the Q/A experiments
// do (SimJ with the default options, then BuildTemplates) and draws its
// holdout questions.
func trainedStore(t *testing.T, cfg workload.QAConfig, holdout int) (*template.Store, *linker.Lexicon, []workload.Question) {
	t.Helper()
	w, err := workload.GenerateQA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := experiments.Prepare(w)
	pairs, _, err := p.Join(experiments.DefaultJoinOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, _ := p.BuildTemplates(pairs)
	return st, w.KB.Lexicon, w.HoldoutQuestions(cfg.Seed+1000, holdout, 0.2)
}

// keywordsIn reports whether every non-slot word of the template is in the
// lowercased unit set have.
func keywordsIn(t *template.Template, have map[string]bool) bool {
	for _, tok := range t.Tokens {
		if tok != nlq.Slot && !have[strings.ToLower(tok)] {
			return false
		}
	}
	return true
}

// TestBestMatchMatchesReference checks the analysed, keyword-gated matcher
// against the reference on three workloads' holdout questions: BestMatch
// returns the identical Match (or the identical error) at every minPhi, and
// MatchQuestion the identical Match for every (question, template) pair,
// incomplete matches included.
func TestBestMatchMatchesReference(t *testing.T) {
	for _, wl := range []struct {
		name string
		cfg  workload.QAConfig
	}{
		{"qald3", workload.QALD3Config()},
		{"webq1", workload.WebQConfig(1)},
		{"mm", workload.MMConfig()},
	} {
		t.Run(wl.name, func(t *testing.T) {
			st, lex, questions := trainedStore(t, wl.cfg, 200)
			var answered, abstained, gated, converse int
			for _, hq := range questions {
				for _, phi := range []float64{0, 0.5, 1.0} {
					got, gotErr := st.BestMatch(hq.Text, lex, phi)
					want, wantErr := refBestMatch(st, hq.Text, lex, phi)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%q at minPhi %v: error %v, reference %v", hq.Text, phi, gotErr, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%q at minPhi %v:\n got  %+v\n want %+v", hq.Text, phi, got, want)
					}
					if gotErr == nil {
						answered++
					} else {
						abstained++
					}
				}
				have := make(map[string]bool)
				for _, u := range refCollapseQuestion(hq.Text, lex) {
					have[strings.ToLower(u)] = true
				}
				for _, tpl := range st.All() {
					got := tpl.MatchQuestion(hq.Text, lex)
					want := refMatchQuestion(tpl, hq.Text, lex)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%q against %q:\n got  %+v\n want %+v", hq.Text, tpl.NL, got, want)
					}
					if !want.KeywordsCovered {
						gated++
					}
					if !want.KeywordsCovered && keywordsIn(tpl, have) {
						converse++
					}
				}
			}
			t.Logf("%d templates, %d questions: %d answered, %d abstained (over 3 minPhi); %d of %d pairs not keyword-covered, %d of them by the converse check",
				st.Len(), len(questions), answered, abstained, gated, st.Len()*len(questions), converse)
			// Each axis of the comparison must be exercised, or a wrong
			// gate or a dropped converse check could pass unseen.
			if answered == 0 || abstained == 0 || gated == 0 || converse == 0 {
				t.Fatalf("vacuous comparison: answered %d, abstained %d, gated %d, converse %d", answered, abstained, gated, converse)
			}
		})
	}
}
