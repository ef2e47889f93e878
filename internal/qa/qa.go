// Package qa assembles the end-to-end question answering systems evaluated
// in Table 4: the template-based system of §2.2 (this paper's pipeline) and
// simplified reimplementations of the two comparison systems, gAnswer [33]
// and DEANNA [23]. The baselines are structural stand-ins that reproduce the
// failure modes the paper's related-work analysis attributes to them:
// gAnswer translates the semantic query graph directly with top-confidence
// disambiguation (no paraphrase correction), and DEANNA answers only the
// narrower class of questions it can disambiguate confidently.
package qa

import (
	"fmt"

	"simjoin/internal/linker"
	"simjoin/internal/nlq"
	"simjoin/internal/rdf"
	"simjoin/internal/sparql"
	"simjoin/internal/template"
)

// System is a question answering system: natural language in, bindings out.
type System interface {
	Name() string
	Answer(question string) ([]sparql.Binding, error)
}

// TemplateSystem answers questions by matching them against learned
// templates, filling slots, and executing the instantiated SPARQL (§2.2).
type TemplateSystem struct {
	Store *template.Store
	Lex   *linker.Lexicon
	KB    *rdf.Store
	// MinPhi is the minimum matching proportion φ; below-threshold matches
	// are rejected (Table 5). Zero means accept any partial match.
	MinPhi float64
	// MaxSolutions caps query results; 0 = unlimited.
	MaxSolutions int
}

// Name implements System.
func (s *TemplateSystem) Name() string { return "template" }

// Answer implements System. Entity candidates are verified against the
// knowledge graph (query-driven disambiguation): the structured template
// lets the system try lower-confidence candidates when the top one yields
// nothing. A panic anywhere in the pipeline is contained and returned as an
// error.
func (s *TemplateSystem) Answer(question string) (res []sparql.Binding, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("qa: template pipeline panicked: %v", r)
		}
	}()
	m, err := s.Store.BestMatch(question, s.Lex, s.MinPhi)
	if err != nil {
		return nil, err
	}
	if _, res, err = m.InstantiateVerified(s.Lex, s.KB, 8); err != nil {
		return nil, err
	}
	if s.MaxSolutions > 0 && len(res) > s.MaxSolutions {
		res = res[:s.MaxSolutions]
	}
	return res, nil
}

// Translate exposes the question → SPARQL step for inspection (verified
// instantiation, like Answer).
func (s *TemplateSystem) Translate(question string) (*sparql.Query, template.Match, error) {
	m, err := s.Store.BestMatch(question, s.Lex, s.MinPhi)
	if err != nil {
		return nil, m, err
	}
	q, _, err := m.InstantiateVerified(s.Lex, s.KB, 8)
	return q, m, err
}

// GAnswerSystem is the gAnswer-style baseline: interpret the question into a
// semantic query graph and translate it directly into SPARQL, taking the
// top-confidence entity and predicate candidates.
type GAnswerSystem struct {
	Lex          *linker.Lexicon
	KB           *rdf.Store
	MaxSolutions int
}

// Name implements System.
func (s *GAnswerSystem) Name() string { return "gAnswer" }

// Answer implements System.
func (s *GAnswerSystem) Answer(question string) ([]sparql.Binding, error) {
	sg, err := nlq.Extract(question, s.Lex)
	if err != nil {
		return nil, err
	}
	q, err := DirectTranslate(sg)
	if err != nil {
		return nil, err
	}
	return sparql.Execute(s.KB, q, s.MaxSolutions)
}

// DirectTranslate turns a semantic query graph into SPARQL with
// top-confidence disambiguation everywhere: variables stay variables (with a
// type constraint when a class is known), entities take their best linking
// candidate, relations take their best paraphrase.
func DirectTranslate(sg *nlq.SemanticGraph) (*sparql.Query, error) {
	q := &sparql.Query{}
	term := make([]sparql.Term, len(sg.Args))
	for i, a := range sg.Args {
		switch a.Kind {
		case nlq.ArgVariable, nlq.ArgClass:
			term[i] = sparql.Term{Kind: sparql.Var, Value: a.Var}
			if a.Kind == nlq.ArgVariable {
				q.Vars = append(q.Vars, a.Var)
			}
			if a.Class != "" {
				q.Patterns = append(q.Patterns, sparql.TriplePattern{
					S: term[i],
					P: sparql.Term{Kind: sparql.IRI, Value: sparql.TypePredicate},
					O: sparql.Term{Kind: sparql.IRI, Value: a.Class},
				})
			}
		case nlq.ArgEntity:
			if len(a.Candidates) == 0 {
				return nil, fmt.Errorf("qa: entity %q has no candidates", a.Surface)
			}
			term[i] = sparql.Term{Kind: sparql.IRI, Value: a.Candidates[0].Entity}
		}
	}
	if len(q.Vars) == 0 {
		// Questions like "Where was X born?" may have only class args; fall
		// back to projecting every variable term.
		for i, a := range sg.Args {
			if term[i].Kind == sparql.Var {
				q.Vars = append(q.Vars, a.Var)
			}
		}
	}
	if len(q.Vars) == 0 {
		return nil, fmt.Errorf("qa: no variable to project")
	}
	for _, r := range sg.Rels {
		if len(r.Candidates) == 0 {
			return nil, fmt.Errorf("qa: relation %q has no candidates", r.Phrase)
		}
		q.Patterns = append(q.Patterns, sparql.TriplePattern{
			S: term[r.Arg1],
			P: sparql.Term{Kind: sparql.IRI, Value: r.Candidates[0].Predicate},
			O: term[r.Arg2],
		})
	}
	if len(q.Patterns) == 0 {
		return nil, fmt.Errorf("qa: empty translation")
	}
	return q, nil
}

// DeannaSystem is the DEANNA-style baseline: joint disambiguation modelled
// conservatively — it answers only questions whose every phrase disambiguates
// with high confidence and whose structure stays within one non-type
// relation, abstaining otherwise (the narrower question class the paper's
// Table 4 reflects).
type DeannaSystem struct {
	Lex          *linker.Lexicon
	KB           *rdf.Store
	MaxSolutions int
	// Confidence is the minimum top-candidate confidence required to commit
	// to a disambiguation; defaults to 0.9 when zero.
	Confidence float64
}

// Name implements System.
func (s *DeannaSystem) Name() string { return "DEANNA" }

// Answer implements System.
func (s *DeannaSystem) Answer(question string) ([]sparql.Binding, error) {
	conf := s.Confidence
	if conf == 0 {
		conf = 0.9
	}
	sg, err := nlq.Extract(question, s.Lex)
	if err != nil {
		return nil, err
	}
	if len(sg.Rels) > 1 {
		return nil, fmt.Errorf("qa: DEANNA baseline handles single-relation questions only (%d relations)", len(sg.Rels))
	}
	for _, a := range sg.Args {
		if a.Kind == nlq.ArgEntity && (len(a.Candidates) == 0 || a.Candidates[0].P < conf) {
			return nil, fmt.Errorf("qa: DEANNA baseline cannot confidently disambiguate %q", a.Surface)
		}
	}
	for _, r := range sg.Rels {
		if len(r.Candidates) == 0 || r.Candidates[0].P < conf {
			return nil, fmt.Errorf("qa: DEANNA baseline cannot confidently map relation %q", r.Phrase)
		}
	}
	q, err := DirectTranslate(sg)
	if err != nil {
		return nil, err
	}
	return sparql.Execute(s.KB, q, s.MaxSolutions)
}
