package graph

// The process-wide label dictionary.
//
// Every vertex and edge label that enters a Graph (or an ugraph.Graph) is
// interned exactly once into a dense int32 id space shared by the whole
// process — the same dictionary-encoding idea the S8 RDF triple store applies
// to IRIs (internal/rdf), lifted to the join's label universe. The hot
// kernels of packages filter, ged and core then compare labels by integer
// equality and summarise graphs as sorted (id, count) vectors and bitsets
// instead of hashing strings per pair and per possible world.
//
// Wildcard labels ('?'-prefixed, §2.1) all collapse to the reserved
// WildcardID 0: LabelsMatch treats every wildcard as matching anything, so
// distinct wildcard names are indistinguishable to every kernel that uses
// IDsMatch. Code that needs the spelling of a wildcard (printing, SPARQL
// variable identity) keeps reading the label strings, which graphs store
// alongside the ids.

import "sync"

// LabelID is a dictionary-encoded vertex or edge label. Distinct concrete
// labels receive distinct ids; every wildcard label is WildcardID.
type LabelID int32

// WildcardID is the reserved id all wildcard ('?'-prefixed) labels intern to.
const WildcardID LabelID = 0

var dict = struct {
	mu    sync.RWMutex
	ids   map[string]LabelID
	names []string
}{
	ids:   make(map[string]LabelID),
	names: []string{"?"}, // slot 0: the canonical wildcard spelling
}

// InternLabel returns the dictionary id of a label, assigning the next free
// id on first sight. Wildcard labels return WildcardID without touching the
// dictionary. Safe for concurrent use.
func InternLabel(label string) LabelID {
	if IsWildcard(label) {
		return WildcardID
	}
	dict.mu.RLock()
	id, ok := dict.ids[label]
	dict.mu.RUnlock()
	if ok {
		return id
	}
	dict.mu.Lock()
	defer dict.mu.Unlock()
	if id, ok = dict.ids[label]; ok {
		return id
	}
	id = LabelID(len(dict.names))
	dict.ids[label] = id
	dict.names = append(dict.names, label)
	return id
}

// LookupLabel returns the id of an already-interned label; ok is false when
// the label has never been interned (wildcards are always "interned").
func LookupLabel(label string) (LabelID, bool) {
	if IsWildcard(label) {
		return WildcardID, true
	}
	dict.mu.RLock()
	id, ok := dict.ids[label]
	dict.mu.RUnlock()
	return id, ok
}

// LabelName returns the string spelling of an id; WildcardID reads back as
// "?" (individual wildcard spellings are not recoverable from ids — graphs
// keep the strings for that).
func LabelName(id LabelID) string {
	dict.mu.RLock()
	defer dict.mu.RUnlock()
	return dict.names[id]
}

// IDsMatch is LabelsMatch over dictionary ids: equal, or either side a
// wildcard. Because interning collapses exactly the wildcard labels to
// WildcardID and is injective on concrete labels, IDsMatch(InternLabel(a),
// InternLabel(b)) == LabelsMatch(a, b) for all strings a, b.
func IDsMatch(a, b LabelID) bool {
	return a == b || a == WildcardID || b == WildcardID
}

// LabelCount is one entry of a sorted label-multiset vector: a concrete
// label id and its multiplicity. Vectors are sorted by ID ascending so
// multiset intersections run as two-pointer merges.
type LabelCount struct {
	ID LabelID
	N  int32
}

// CountLabelIDs run-length encodes an id slice into a sorted LabelCount
// vector, separating out wildcards. ids is sorted in place.
func CountLabelIDs(ids []LabelID) (labels []LabelCount, wildcards int) {
	if len(ids) == 0 {
		return nil, 0
	}
	// Insertion sort: label lists are small and nearly sorted in practice.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	labels = make([]LabelCount, 0, len(ids))
	for _, id := range ids {
		if id == WildcardID {
			wildcards++
			continue
		}
		if n := len(labels); n > 0 && labels[n-1].ID == id {
			labels[n-1].N++
		} else {
			labels = append(labels, LabelCount{ID: id, N: 1})
		}
	}
	if len(labels) == 0 {
		labels = nil
	}
	return labels, wildcards
}

// LabelSet is a bitset over dictionary ids, sized lazily to the largest id
// added. The zero value is an empty set ready to use.
type LabelSet struct {
	words []uint64
}

// Reset empties the set, retaining capacity.
func (s *LabelSet) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Add inserts an id.
func (s *LabelSet) Add(id LabelID) {
	w := int(id) >> 6
	for w >= len(s.words) {
		if len(s.words) < cap(s.words) {
			s.words = s.words[:len(s.words)+1]
		} else {
			s.words = append(s.words, 0)
		}
	}
	s.words[w] |= 1 << (uint(id) & 63)
}

// Has reports membership.
func (s *LabelSet) Has(id LabelID) bool {
	w := int(id) >> 6
	return w < len(s.words) && s.words[w]&(1<<(uint(id)&63)) != 0
}

// Intersects reports whether the two sets share any id, in O(words).
func (s *LabelSet) Intersects(t *LabelSet) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Words exposes the set's backing bit words (word w covers ids 64w..64w+63)
// for bulk packing into word-major layouts (core.Index). The slice aliases
// the set's storage: callers must treat it as read-only.
func (s *LabelSet) Words() []uint64 {
	return s.words
}

// Len returns the number of ids in the set.
func (s *LabelSet) Len() int {
	n := 0
	for _, w := range s.words {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}
