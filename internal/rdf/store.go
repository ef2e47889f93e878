// Package rdf implements the knowledge-graph substrate: an in-memory,
// dictionary-encoded RDF triple store with SPO/POS/OSP indexes, the storage
// layer the paper's Q/A pipeline queries through SPARQL (§1, §2.2).
//
// Terms are plain strings. By convention IRIs are bare local names
// ("Harvard_University", "graduatedFrom"), literals are quoted by the
// N-Triples reader/writer, and variables (used only in patterns, never
// stored) begin with '?'.
package rdf

import (
	"fmt"
	"sort"
)

// Triple is one RDF statement.
type Triple struct {
	S, P, O string
}

// id is a dictionary-encoded term.
type id uint32

// encoded is a dictionary-encoded triple.
type encoded struct{ s, p, o id }

// Store is an in-memory triple store. The zero value is empty and ready to
// use. Store is not safe for concurrent mutation; concurrent reads are safe
// after loading completes.
type Store struct {
	dict    map[string]id
	terms   []string
	triples map[encoded]struct{}

	// Permuted indexes: spo[s][p] = sorted objects, and so on.
	spo map[id]map[id][]id
	pos map[id]map[id][]id
	osp map[id]map[id][]id

	// Optional observability handles (see SetObs); nil-safe when unset.
	m storeMetrics
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		dict:    make(map[string]id),
		triples: make(map[encoded]struct{}),
		spo:     make(map[id]map[id][]id),
		pos:     make(map[id]map[id][]id),
		osp:     make(map[id]map[id][]id),
	}
}

func (st *Store) intern(term string) id {
	if i, ok := st.dict[term]; ok {
		return i
	}
	i := id(len(st.terms))
	st.dict[term] = i
	st.terms = append(st.terms, term)
	return i
}

func (st *Store) lookup(term string) (id, bool) {
	i, ok := st.dict[term]
	return i, ok
}

// Add inserts a triple; duplicates are ignored. Empty or variable terms are
// rejected.
func (st *Store) Add(s, p, o string) error {
	for _, t := range []string{s, p, o} {
		if t == "" {
			return fmt.Errorf("rdf: empty term in triple (%q,%q,%q)", s, p, o)
		}
		if t[0] == '?' {
			return fmt.Errorf("rdf: variable %q cannot be stored", t)
		}
	}
	e := encoded{st.intern(s), st.intern(p), st.intern(o)}
	if _, dup := st.triples[e]; dup {
		return nil
	}
	st.triples[e] = struct{}{}
	insertIndex(st.spo, e.s, e.p, e.o)
	insertIndex(st.pos, e.p, e.o, e.s)
	insertIndex(st.osp, e.o, e.s, e.p)
	st.m.adds.Inc()
	st.m.size.Set(float64(len(st.triples)))
	return nil
}

// MustAdd is Add that panics on error, for fixed datasets in tests and
// generators.
func (st *Store) MustAdd(s, p, o string) {
	if err := st.Add(s, p, o); err != nil {
		panic(err)
	}
}

func insertIndex(idx map[id]map[id][]id, a, b, c id) {
	m, ok := idx[a]
	if !ok {
		m = make(map[id][]id)
		idx[a] = m
	}
	lst := m[b]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= c })
	if i < len(lst) && lst[i] == c {
		return
	}
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = c
	m[b] = lst
}

// Len returns the number of distinct triples.
func (st *Store) Len() int { return len(st.triples) }

// Contains reports whether the exact triple is stored.
func (st *Store) Contains(s, p, o string) bool {
	si, ok1 := st.lookup(s)
	pi, ok2 := st.lookup(p)
	oi, ok3 := st.lookup(o)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	_, ok := st.triples[encoded{si, pi, oi}]
	return ok
}

// Match streams every triple matching the pattern to fn; empty strings and
// '?'-prefixed terms are wildcards. Enumeration stops when fn returns false.
// The best index for the bound positions is chosen automatically.
func (st *Store) Match(s, p, o string, fn func(t Triple) bool) {
	st.m.matches.Inc()
	wild := func(t string) bool { return t == "" || t[0] == '?' }
	ws, wp, wo := wild(s), wild(p), wild(o)

	resolve := func(t string, w bool) (id, bool) {
		if w {
			return 0, true
		}
		return st.lookup(t)
	}
	si, ok1 := resolve(s, ws)
	pi, ok2 := resolve(p, wp)
	oi, ok3 := resolve(o, wo)
	if !ok1 || !ok2 || !ok3 {
		return // a bound term absent from the dictionary matches nothing
	}

	emit := func(a, b, c id) bool {
		st.m.scanned.Inc()
		return fn(Triple{st.terms[a], st.terms[b], st.terms[c]})
	}

	switch {
	case !ws && !wp && !wo:
		if _, ok := st.triples[encoded{si, pi, oi}]; ok {
			emit(si, pi, oi)
		}
	case !ws && !wp: // S P ? -> spo
		for _, obj := range st.spo[si][pi] {
			if !emit(si, pi, obj) {
				return
			}
		}
	case !wp && !wo: // ? P O -> pos
		for _, sub := range st.pos[pi][oi] {
			if !emit(sub, pi, oi) {
				return
			}
		}
	case !ws && !wo: // S ? O -> osp
		for _, pred := range st.osp[oi][si] {
			if !emit(si, pred, oi) {
				return
			}
		}
	case !ws: // S ? ?
		for pred, objs := range st.spo[si] {
			for _, obj := range objs {
				if !emit(si, pred, obj) {
					return
				}
			}
		}
	case !wp: // ? P ?
		for obj, subs := range st.pos[pi] {
			for _, sub := range subs {
				if !emit(sub, pi, obj) {
					return
				}
			}
		}
	case !wo: // ? ? O
		for sub, preds := range st.osp[oi] {
			for _, pred := range preds {
				if !emit(sub, pred, oi) {
					return
				}
			}
		}
	default: // ? ? ?
		for e := range st.triples {
			if !emit(e.s, e.p, e.o) {
				return
			}
		}
	}
}

// MatchCount returns the number of triples matching the pattern, used for
// selectivity-based join ordering.
func (st *Store) MatchCount(s, p, o string) int {
	n := 0
	st.Match(s, p, o, func(Triple) bool { n++; return true })
	return n
}

// Triples returns all triples in an unspecified order.
func (st *Store) Triples() []Triple {
	out := make([]Triple, 0, len(st.triples))
	for e := range st.triples {
		out = append(out, Triple{st.terms[e.s], st.terms[e.p], st.terms[e.o]})
	}
	return out
}

// Subjects calls fn once for every distinct subject.
func (st *Store) Subjects(fn func(s string) bool) {
	for s := range st.spo {
		if !fn(st.terms[s]) {
			return
		}
	}
}
