// Package template implements Step 3 of the paper's pipeline (§2.1) and the
// template-based Q/A of §2.2: turning similar graph pairs 〈q, g〉 returned by
// SimJ into reusable question-to-SPARQL templates, storing and indexing
// them, matching new questions against them with dependency-tree edit
// distance (Fig. 5), and filling slots to produce executable SPARQL.
package template

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"simjoin/internal/ged"
	"simjoin/internal/nlq"
	"simjoin/internal/sparql"
)

// SlotRole says what kind of phrase fills a slot.
type SlotRole int

const (
	// SlotEntity expects an entity mention.
	SlotEntity SlotRole = iota
	// SlotClass expects a class noun.
	SlotClass
)

// Slot pairs one natural-language slot with the SPARQL positions it fills.
type Slot struct {
	Role SlotRole
	// NLIndex is the index of this slot's token in the template's token
	// sequence (see Template.Tokens).
	NLIndex int
	// Positions lists the query pattern positions the captured value
	// substitutes: pattern index and whether it is the subject or object.
	Positions []TermPos
	// Original is the value the source pair had at this slot (provenance).
	Original string
}

// TermPos addresses one term inside a query's pattern list.
type TermPos struct {
	Pattern int
	Object  bool // false = subject
}

// Template is one learned question template.
type Template struct {
	// NL is the display form of the natural-language pattern, with nlq.Slot
	// marking slots.
	NL string
	// Tokens is the collapsed token sequence of the pattern (entity
	// mentions collapsed to single tokens, slots as nlq.Slot).
	Tokens []string
	// Query is the slotted SPARQL query: slotted terms carry placeholder
	// IRI values "__SLOT<i>__".
	Query *sparql.Query
	// Slots describes each slot in NL order.
	Slots []Slot
	// Support counts how many join pairs produced this template.
	Support int

	// sideOnce guards matchSide, the template's half of matching, built on
	// first use from Tokens and Slots (which must not change after that).
	sideOnce  sync.Once
	matchSide matchSide
}

// slotValue returns the placeholder term value of slot i.
func slotValue(i int) string { return fmt.Sprintf("__SLOT%d__", i) }

// Generate builds a template from one similar pair: the SPARQL query graph
// q, the uncertain question uq, the satisfying possible world, and the GED
// vertex mapping from q's graph to the world (produced during verification,
// §2.1 Step 3 / Fig. 4).
//
// Every entity/class vertex of q whose image under the mapping is an
// entity/class vertex of the question becomes a slot: its phrase in the
// question text and its term in the SPARQL query are replaced together. An
// error is returned when the mapping yields no usable alignment.
func Generate(q *sparql.QueryGraph, uq *nlq.UncertainQuestion, mapping ged.Mapping) (*Template, error) {
	if len(mapping) != q.Graph.NumVertices() {
		return nil, fmt.Errorf("template: mapping length %d != |V(q)| %d", len(mapping), q.Graph.NumVertices())
	}

	type slotSource struct {
		qVertex  int
		role     SlotRole
		surface  string // question phrase
		original string
	}
	var sources []slotSource
	for v := 0; v < q.Graph.NumVertices(); v++ {
		role := q.Roles[v]
		if role == sparql.RoleVariable {
			continue
		}
		img := mapping[v]
		if img == ged.Deleted || img >= len(uq.VertexArg) {
			continue
		}
		surface, ok := uq.SlotSurface(img)
		if !ok {
			continue
		}
		sr := SlotEntity
		if role == sparql.RoleClass {
			sr = SlotClass
		}
		sources = append(sources, slotSource{qVertex: v, role: sr, surface: surface, original: q.Terms[v].Value})
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("template: no aligned entity/class vertices between query and question")
	}

	// Build the collapsed token sequence of the question, replacing each
	// slotted surface (longest first so multi-word mentions win).
	sort.Slice(sources, func(i, j int) bool {
		return len(sources[i].surface) > len(sources[j].surface)
	})
	toks := nlq.Tokenize(uq.Sem.Question)
	slotAt := make([]int, len(toks)) // token -> source index + 1, 0 = none
	consumed := make([]bool, len(toks))
	for si, src := range sources {
		words := nlq.Tokenize(src.surface)
		pos := findPhrase(toks, words, consumed)
		if pos < 0 {
			return nil, fmt.Errorf("template: phrase %q not found in question %q", src.surface, uq.Sem.Question)
		}
		slotAt[pos] = si + 1
		for k := pos; k < pos+len(words); k++ {
			consumed[k] = true
		}
	}

	tpl := &Template{Support: 1}
	// Assemble tokens; map source index -> slot index in NL order.
	slotIndexOf := make([]int, len(sources))
	for i := range slotIndexOf {
		slotIndexOf[i] = -1
	}
	for i := 0; i < len(toks); i++ {
		if si := slotAt[i]; si > 0 {
			src := sources[si-1]
			slotIndexOf[si-1] = len(tpl.Slots)
			tpl.Slots = append(tpl.Slots, Slot{
				Role:     src.role,
				NLIndex:  len(tpl.Tokens),
				Original: src.original,
			})
			tpl.Tokens = append(tpl.Tokens, nlq.Slot)
			// Skip the rest of the consumed phrase.
			words := nlq.Tokenize(src.surface)
			i += len(words) - 1
			continue
		}
		if consumed[i] {
			continue
		}
		tpl.Tokens = append(tpl.Tokens, toks[i])
	}
	tpl.NL = strings.Join(tpl.Tokens, " ") + "?"

	// Slot the SPARQL query.
	qc := &sparql.Query{Vars: append([]string(nil), q.Query.Vars...)}
	qc.Patterns = append(qc.Patterns, q.Query.Patterns...)
	for si, src := range sources {
		slotIdx := slotIndexOf[si]
		if slotIdx < 0 {
			continue
		}
		val := q.Terms[src.qVertex].Value
		for pi := range qc.Patterns {
			if qc.Patterns[pi].S.Kind != sparql.Var && qc.Patterns[pi].S.Value == val {
				qc.Patterns[pi].S = sparql.Term{Kind: sparql.IRI, Value: slotValue(slotIdx)}
				tpl.Slots[slotIdx].Positions = append(tpl.Slots[slotIdx].Positions, TermPos{Pattern: pi, Object: false})
			}
			if qc.Patterns[pi].O.Kind != sparql.Var && qc.Patterns[pi].O.Value == val {
				qc.Patterns[pi].O = sparql.Term{Kind: sparql.IRI, Value: slotValue(slotIdx)}
				tpl.Slots[slotIdx].Positions = append(tpl.Slots[slotIdx].Positions, TermPos{Pattern: pi, Object: true})
			}
		}
	}
	tpl.Query = qc

	for _, s := range tpl.Slots {
		if len(s.Positions) == 0 {
			return nil, fmt.Errorf("template: slot %d bound no query position", s.NLIndex)
		}
	}
	return tpl, nil
}

// Grounded reports whether every slotted correspondence of a pair aligns on
// compatible labels: each entity/class vertex of q maps to a question vertex
// one of whose candidate labels equals the query term. Grounded pairs are
// direct lexical evidence for the slot correspondence; ungrounded ones (the
// paper's CIT ↔ Harvard_University mapping) still produce valid templates
// but weaker evidence, so BuildTemplates prefers grounded pairs per question
// when any exist.
func Grounded(q *sparql.QueryGraph, uq *nlq.UncertainQuestion, mapping ged.Mapping) bool {
	if len(mapping) != q.Graph.NumVertices() {
		return false
	}
	for v := 0; v < q.Graph.NumVertices(); v++ {
		if q.Roles[v] == sparql.RoleVariable {
			continue
		}
		img := mapping[v]
		if img == ged.Deleted || img >= len(uq.VertexArg) {
			return false
		}
		if _, ok := uq.SlotSurface(img); !ok {
			return false
		}
		want := q.Terms[v].Value
		matched := false
		for _, l := range uq.Graph.Labels(img) {
			if l.Name == want {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// findPhrase locates words inside toks (case-insensitive), skipping already
// consumed positions; returns the start index or -1.
func findPhrase(toks, words []string, consumed []bool) int {
	if len(words) == 0 {
		return -1
	}
outer:
	for i := 0; i+len(words) <= len(toks); i++ {
		for j := range words {
			if consumed[i+j] || !strings.EqualFold(toks[i+j], words[j]) {
				continue outer
			}
		}
		return i
	}
	return -1
}

// Key returns a canonical identity for deduplication: the NL token pattern
// plus the slotted query text.
func (t *Template) Key() string {
	return strings.Join(t.Tokens, " ") + "\x00" + t.Query.String()
}

// String renders the template like Fig. 4(d).
func (t *Template) String() string {
	return t.NL + "  =>  " + t.Query.String()
}
