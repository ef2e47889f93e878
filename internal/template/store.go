package template

import (
	"fmt"
	"sort"

	"simjoin/internal/linker"
	"simjoin/internal/sparql"
)

// Store holds the learned templates with deduplication and lookup. The zero
// value is unusable; construct with NewStore.
type Store struct {
	byKey map[string]*Template
	all   []*Template
}

// NewStore returns an empty template store.
func NewStore() *Store {
	return &Store{byKey: make(map[string]*Template)}
}

// Add inserts a template, merging duplicates by incrementing Support. It
// returns the canonical instance.
func (s *Store) Add(t *Template) *Template {
	if cur, ok := s.byKey[t.Key()]; ok {
		cur.Support++
		return cur
	}
	s.byKey[t.Key()] = t
	s.all = append(s.all, t)
	return t
}

// Len returns the number of distinct templates.
func (s *Store) Len() int { return len(s.all) }

// Templates returns all templates ordered by descending support, then NL.
func (s *Store) Templates() []*Template {
	out := append([]*Template(nil), s.all...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].NL < out[j].NL
	})
	return out
}

// BestMatch finds the template whose dependency tree best aligns with the
// question (minimum tree edit distance, ties broken by higher φ, then by
// higher support). minPhi discards matches whose matching proportion φ falls
// below it — the partial-match knob of Table 5; pass 1.0 to require a full
// match. It returns an error when the store is empty or nothing reaches
// minPhi.
//
// The question is analysed once and scored against each template as
// MatchQuestion would score it. A template with a non-slot word the question
// lacks is skipped before alignment and tree edit distance: its match has
// KeywordsCovered false, so it could never be Complete, and the choice is
// the one scoring every template would make. BestMatch may run concurrently
// with itself, but not with Add.
func (s *Store) BestMatch(question string, lex *linker.Lexicon, minPhi float64) (Match, error) {
	if len(s.all) == 0 {
		return Match{}, fmt.Errorf("template: store is empty")
	}
	q := analyse(question, lex)
	var best Match
	found := false
	for _, t := range s.all {
		if !q.covers(t.side().keywords) {
			continue
		}
		m := t.score(q)
		if m.Phi < minPhi-1e-9 || !m.Complete() {
			continue
		}
		if !found || better(m, best) {
			best = m
			found = true
		}
	}
	if !found {
		return Match{}, fmt.Errorf("template: no template reaches phi >= %v for %q", minPhi, question)
	}
	return best, nil
}

func better(a, b Match) bool {
	if a.TED != b.TED {
		return a.TED < b.TED
	}
	if a.Phi != b.Phi {
		return a.Phi > b.Phi
	}
	return a.Template.Support > b.Template.Support
}

// Translate matches the question against the store and instantiates the best
// template into an executable SPARQL query (§2.2 end-to-end).
func (s *Store) Translate(question string, lex *linker.Lexicon, minPhi float64) (*sparql.Query, Match, error) {
	m, err := s.BestMatch(question, lex, minPhi)
	if err != nil {
		return nil, Match{}, err
	}
	q, err := m.Instantiate(lex)
	if err != nil {
		return nil, m, err
	}
	return q, m, nil
}
