package template

import (
	"fmt"
	"sort"
	"strings"

	"simjoin/internal/linker"
	"simjoin/internal/nlq"
	"simjoin/internal/rdf"
	"simjoin/internal/sparql"
)

// Match is the result of aligning a question with a template.
type Match struct {
	Template *Template
	// TED is the tree edit distance between the dependency trees of the
	// question and the template (lower is better).
	TED int
	// Phi is the matching proportion φ: covered question words / all words
	// (Appendix F.2).
	Phi float64
	// Fillers holds the phrase captured by each slot, in slot order; empty
	// strings mark unfilled slots.
	Fillers []string
	// KeywordsCovered reports whether every non-slot template word occurs
	// in the question; templates failing this describe a different relation.
	KeywordsCovered bool
}

// Complete reports whether the match can be instantiated: all keywords
// covered and every slot filled.
func (m Match) Complete() bool {
	if !m.KeywordsCovered {
		return false
	}
	for _, f := range m.Fillers {
		if f == "" {
			return false
		}
	}
	return true
}

// collapseQuestion turns a question into the unit-token sequence templates
// are matched against: entity mentions become single tokens, other tokens
// stay as-is (stopwords retained — templates keep theirs too).
func collapseQuestion(question string, lex *linker.Lexicon) []string {
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

// AlignTokens aligns template tokens against question units with a minimal
// edit script and returns the slot captures, the number of question units
// covered at zero cost, and the alignment cost. Slots match fillable units
// (entity mentions, class nouns) at zero cost and anything else at cost 1,
// so the optimal alignment never wastes a slot on a stopword when a fillable
// unit is available. fillable may be nil (every unit fillable).
func AlignTokens(tmplTokens, units []string, fillable []bool) (captures map[int]string, covered, cost int) {
	return alignTokens(tmplTokens, units, func(_, j int) bool {
		return fillable == nil || fillable[j]
	})
}

// alignTokens is AlignTokens with a per-(slot, unit) compatibility function.
func alignTokens(tmplTokens, units []string, compatible func(i, j int) bool) (captures map[int]string, covered, cost int) {
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
	// dp[i][j]: cost aligning tmpl[i:] with units[j:].
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
	// Traceback.
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

// MatchQuestion aligns one template against a question: dependency-tree edit
// distance for the score, role-aware token alignment for slot capture and φ.
// Class slots only capture class nouns, entity slots only linkable mentions.
// It is the score of the question's analysis against this template, the one
// matching path BestMatch also takes.
func (t *Template) MatchQuestion(question string, lex *linker.Lexicon) Match {
	return t.score(analyse(question, lex))
}

// analysis is the question's half of matching: everything MatchQuestion
// derives from the question alone, built once per question however many
// templates are scored against it. It is not safe for concurrent use.
type analysis struct {
	text string
	lex  *linker.Lexicon
	// units is the collapsed question (collapseQuestion); isClass and
	// linkable flag the class nouns and the linkable mentions among them
	// (both nil without a lexicon, when every unit fills any slot).
	units             []string
	isClass, linkable []bool
	lower             map[string]bool // lowercased units
	tree              nlq.PreparedTree
	// rels is the question's semantic graph as the converse check reads it,
	// extracted on first need (relations).
	rels      []relation
	extracted bool
}

// relation is one relation of the question's semantic graph, lowercased:
// its phrase's non-stopword words, and the surfaces of both arguments with
// the last word of each (class-noun arguments taint their bare noun too:
// "a city").
type relation struct {
	words []string
	args  []string
}

func analyse(question string, lex *linker.Lexicon) *analysis {
	a := &analysis{text: question, lex: lex, units: collapseQuestion(question, lex)}
	a.lower = make(map[string]bool, len(a.units))
	for _, u := range a.units {
		a.lower[strings.ToLower(u)] = true
	}
	if lex != nil {
		a.isClass = make([]bool, len(a.units))
		a.linkable = make([]bool, len(a.units))
		for j, u := range a.units {
			_, a.isClass[j] = lex.LookupClass(u)
			a.linkable[j] = len(lex.LinkEntity(u)) > 0
		}
	}
	a.tree = nlq.PrepareTree(nlq.BuildDepTree(question, lex))
	return a
}

// covers reports whether every keyword is one of the question's units.
func (a *analysis) covers(keywords []string) bool {
	for _, k := range keywords {
		if !a.lower[k] {
			return false
		}
	}
	return true
}

// relations returns the question's relations, extracting them on the first
// call. A question nlq.Extract cannot analyse has none (the φ threshold then
// remains the only guard, as in the paper).
func (a *analysis) relations() []relation {
	if a.extracted {
		return a.rels
	}
	a.extracted = true
	sg, err := nlq.Extract(a.text, a.lex)
	if err != nil {
		return nil
	}
	for _, r := range sg.Rels {
		var rel relation
		for _, w := range strings.Fields(r.Phrase) {
			if !nlq.IsStopword(w) {
				rel.words = append(rel.words, strings.ToLower(w))
			}
		}
		for _, ai := range []int{r.Arg1, r.Arg2} {
			surface := sg.Args[ai].Surface
			fields := strings.Fields(surface)
			rel.args = append(rel.args, strings.ToLower(surface), strings.ToLower(fields[len(fields)-1]))
		}
		a.rels = append(a.rels, rel)
	}
	return a.rels
}

// matchSide is the template's half of matching, built once per template
// (Template.side) from its Tokens and Slots.
type matchSide struct {
	// keywords are the lowercased non-slot tokens; a question lacking one
	// leaves Match.KeywordsCovered false.
	keywords []string
	// has is the lowercased token set, slots included.
	has map[string]bool
	// roles is the slot role at each token index (SlotEntity where no slot
	// sits).
	roles []SlotRole
	tree  nlq.PreparedTree
}

// side returns the template's half of matching, building it on first use;
// concurrent callers share one build.
func (t *Template) side() *matchSide {
	t.sideOnce.Do(func() {
		ms := &t.matchSide
		ms.has = make(map[string]bool, len(t.Tokens))
		for _, tok := range t.Tokens {
			low := strings.ToLower(tok)
			ms.has[low] = true
			if tok != nlq.Slot {
				ms.keywords = append(ms.keywords, low)
			}
		}
		ms.roles = make([]SlotRole, len(t.Tokens))
		for _, s := range t.Slots {
			if s.NLIndex >= 0 && s.NLIndex < len(ms.roles) {
				ms.roles[s.NLIndex] = s.Role
			}
		}
		ms.tree = nlq.PrepareTree(nlq.BuildDepTree(strings.Join(t.Tokens, " "), nil))
	})
	return &t.matchSide
}

// score matches the template against an analysed question.
func (t *Template) score(q *analysis) Match {
	side := t.side()
	compatible := func(i, j int) bool {
		if q.lex == nil {
			return true
		}
		if side.roles[i] == SlotClass {
			return q.isClass[j]
		}
		return q.linkable[j]
	}
	captures, covered, _ := alignTokens(t.Tokens, q.units, compatible)

	m := Match{Template: t, TED: q.tree.Distance(side.tree), Fillers: make([]string, len(t.Slots))}
	if len(q.units) > 0 {
		m.Phi = float64(covered) / float64(len(q.units))
	}
	for si, s := range t.Slots {
		if cap, ok := captures[s.NLIndex]; ok {
			m.Fillers[si] = cap
		}
	}
	// Keywords check: every non-slot template word must occur in the
	// question, otherwise the template describes a different relation and
	// must not be instantiated ("composed by" templates on "married to"
	// questions).
	m.KeywordsCovered = q.covers(side.keywords)
	// Converse check — partial matching with guardrails. The paper's φ
	// matching drops question constraints a template does not cover
	// (Appendix F.2), which is safe for detachable sibling constraints
	// ("directed by A AND STARRING B" answered by a directed-by template:
	// a superset of the gold answers) but harmful when a dropped relation's
	// argument leaks into a slot ("lives in a city LOCATED IN X" must not
	// fill the lives-in slot with X). So: uncovered relations are allowed
	// only if none of their argument phrases was captured by a slot.
	if q.lex != nil && m.KeywordsCovered && leaks(m.Fillers, q.relations(), side.has) {
		m.KeywordsCovered = false
	}
	return m
}

// leaks reports whether a slot captured an argument of a question relation
// whose phrase words are not all template tokens.
func leaks(fillers []string, rels []relation, tmplHas map[string]bool) bool {
	for _, r := range rels {
		covered := true
		for _, w := range r.words {
			if !tmplHas[w] {
				covered = false
				break
			}
		}
		if covered {
			continue
		}
		for _, f := range fillers {
			if f == "" {
				continue
			}
			lf := strings.ToLower(f)
			for _, arg := range r.args {
				if arg == lf {
					return true
				}
			}
		}
	}
	return false
}

// InstantiateVerified resolves slot phrases like Instantiate but exploits
// the structured query for disambiguation: entity candidates are tried in
// decreasing joint-confidence order (up to maxTries combinations) and the
// first instantiation with non-empty answers over the knowledge graph wins.
// When no combination yields answers, the top-confidence instantiation is
// returned with its empty result. This query-driven candidate verification
// is the practical advantage a full template gives over committing to
// maximum-confidence linking up front.
func (m Match) InstantiateVerified(lex *linker.Lexicon, kb *rdf.Store, maxTries int) (*sparql.Query, []sparql.Binding, error) {
	return m.InstantiateVerifiedWith(lex, func(q *sparql.Query) ([]sparql.Binding, error) {
		return sparql.Execute(kb, q, 0)
	}, maxTries)
}

// Executor runs one instantiated candidate query during verified
// instantiation. A failing candidate is skipped, not fatal: verification
// moves on to the next combination.
type Executor func(q *sparql.Query) ([]sparql.Binding, error)

// InstantiateVerifiedWith is InstantiateVerified over an arbitrary query
// executor, so callers can route candidate verification through a different
// engine (or one wrapped with deadlines and fault containment).
func (m Match) InstantiateVerifiedWith(lex *linker.Lexicon, exec Executor, maxTries int) (*sparql.Query, []sparql.Binding, error) {
	t := m.Template
	if maxTries <= 0 {
		maxTries = 8
	}
	// Per-slot candidate values with confidences.
	type cand struct {
		value string
		p     float64
	}
	options := make([][]cand, len(t.Slots))
	for si, s := range t.Slots {
		phrase := m.Fillers[si]
		if phrase == "" {
			return nil, nil, fmt.Errorf("template: slot %d unfilled for %q", si, t.NL)
		}
		switch s.Role {
		case SlotEntity:
			for _, c := range lex.LinkEntity(phrase) {
				options[si] = append(options[si], cand{c.Entity, c.P})
			}
			if len(options[si]) == 0 {
				return nil, nil, fmt.Errorf("template: cannot link entity phrase %q", phrase)
			}
		case SlotClass:
			class, ok := lex.LookupClass(phrase)
			if !ok {
				return nil, nil, fmt.Errorf("template: unknown class noun %q", phrase)
			}
			options[si] = []cand{{class, 1}}
		}
	}
	// Enumerate combinations, best joint confidence first.
	type combo struct {
		idx []int
		p   float64
	}
	combos := []combo{{idx: make([]int, len(options)), p: 1}}
	for si := range options {
		var next []combo
		for _, c := range combos {
			for oi, o := range options[si] {
				ni := append([]int(nil), c.idx...)
				ni[si] = oi
				next = append(next, combo{idx: ni, p: c.p * o.p})
				if len(next) >= maxTries*4 {
					break
				}
			}
		}
		combos = next
	}
	sort.SliceStable(combos, func(i, j int) bool { return combos[i].p > combos[j].p })
	if len(combos) > maxTries {
		combos = combos[:maxTries]
	}

	build := func(idx []int) *sparql.Query {
		q := &sparql.Query{Vars: append([]string(nil), t.Query.Vars...)}
		q.Patterns = append(q.Patterns, t.Query.Patterns...)
		for si := range t.Slots {
			value := options[si][idx[si]].value
			placeholder := slotValue(si)
			for pi := range q.Patterns {
				if q.Patterns[pi].S.Value == placeholder {
					q.Patterns[pi].S = sparql.Term{Kind: sparql.IRI, Value: value}
				}
				if q.Patterns[pi].O.Value == placeholder {
					q.Patterns[pi].O = sparql.Term{Kind: sparql.IRI, Value: value}
				}
			}
		}
		return q
	}

	var firstQ *sparql.Query
	var firstRes []sparql.Binding
	for i, c := range combos {
		q := build(c.idx)
		res, err := exec(q)
		if err != nil {
			continue
		}
		if i == 0 {
			firstQ, firstRes = q, res
		}
		if len(res) > 0 {
			return q, res, nil
		}
	}
	if firstQ == nil {
		return nil, nil, fmt.Errorf("template: no executable instantiation for %q", t.NL)
	}
	return firstQ, firstRes, nil
}

// Instantiate fills the template's SPARQL with the matched phrases: entity
// slots are resolved through entity linking (top candidate), class slots
// through the class lexicon. It fails when a slot is unfilled or a phrase
// cannot be resolved.
func (m Match) Instantiate(lex *linker.Lexicon) (*sparql.Query, error) {
	t := m.Template
	q := &sparql.Query{Vars: append([]string(nil), t.Query.Vars...)}
	q.Patterns = append(q.Patterns, t.Query.Patterns...)
	for si, s := range t.Slots {
		phrase := m.Fillers[si]
		if phrase == "" {
			return nil, fmt.Errorf("template: slot %d unfilled for %q", si, t.NL)
		}
		var value string
		switch s.Role {
		case SlotEntity:
			cands := lex.LinkEntity(phrase)
			if len(cands) == 0 {
				return nil, fmt.Errorf("template: cannot link entity phrase %q", phrase)
			}
			value = cands[0].Entity
		case SlotClass:
			class, ok := lex.LookupClass(phrase)
			if !ok {
				return nil, fmt.Errorf("template: unknown class noun %q", phrase)
			}
			value = class
		}
		placeholder := slotValue(si)
		for pi := range q.Patterns {
			if q.Patterns[pi].S.Value == placeholder {
				q.Patterns[pi].S = sparql.Term{Kind: sparql.IRI, Value: value}
			}
			if q.Patterns[pi].O.Value == placeholder {
				q.Patterns[pi].O = sparql.Term{Kind: sparql.IRI, Value: value}
			}
		}
	}
	return q, nil
}
