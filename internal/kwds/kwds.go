// Package kwds provides the keyword substrate for geo-textual objects:
// a vocabulary interning keyword strings to dense integer ids, immutable
// sorted keyword sets with the set algebra the CoSKQ algorithms need
// (cover tests, intersection, union, subtraction), and compact bitmask
// representations of query keyword subsets for hot-path coverage tracking.
package kwds

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// ID is a dense keyword identifier assigned by a Vocabulary.
type ID uint32

// Vocabulary interns keyword strings to dense IDs. The zero value is ready
// to use. A Vocabulary is not safe for concurrent mutation; concurrent
// read-only use (Word, Lookup, Len) after construction is safe.
//
// IDs are append-only: a word keeps its ID for the vocabulary's life. A
// live index (internal/epoch) additionally retires a word when its last
// carrier is deleted — the word is then unknown to Lookup and uncounted by
// Len, exactly as if it had never been interned, yet Word still resolves
// its ID and a later Intern revives that same ID, so keyword sets built
// against an earlier state stay valid.
type Vocabulary struct {
	ids     map[string]ID // known words
	words   []string      // ID → word, retired words included
	retired map[string]ID // retired words, for revival under their old ID
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{ids: make(map[string]ID)}
}

// Intern returns the ID for word, assigning a fresh one on first sight
// and reviving the old one when the word was retired.
func (v *Vocabulary) Intern(word string) ID {
	if v.ids == nil {
		v.ids = make(map[string]ID)
	}
	if id, ok := v.ids[word]; ok {
		return id
	}
	id, wasRetired := v.retired[word]
	if wasRetired {
		delete(v.retired, word)
	} else {
		id = ID(len(v.words))
		v.words = append(v.words, word)
	}
	v.ids[word] = id
	return id
}

// Retire makes the word of id unknown: Lookup fails for it and Len no
// longer counts it until an Intern revives it.
func (v *Vocabulary) Retire(id ID) {
	word := v.words[id]
	if _, ok := v.ids[word]; !ok {
		return
	}
	delete(v.ids, word)
	if v.retired == nil {
		v.retired = make(map[string]ID)
	}
	v.retired[word] = id
}

// Clone returns an independent copy: mutating either vocabulary leaves
// the other untouched.
func (v *Vocabulary) Clone() *Vocabulary {
	return &Vocabulary{ids: maps.Clone(v.ids), words: slices.Clone(v.words), retired: maps.Clone(v.retired)}
}

// Lookup returns the ID for word and whether it is known.
func (v *Vocabulary) Lookup(word string) (ID, bool) {
	id, ok := v.ids[word]
	return id, ok
}

// Word returns the string for id. It panics when id was never assigned.
func (v *Vocabulary) Word(id ID) string {
	return v.words[id]
}

// Len returns the number of distinct known words. Without retired words
// (every vocabulary outside a live index) that is also the ID bound.
func (v *Vocabulary) Len() int {
	return len(v.ids)
}

// Words returns the interned words in ID order, retired ones included, so
// its length is the ID bound. The returned slice is the vocabulary's
// backing store and must not be modified.
func (v *Vocabulary) Words() []string {
	return v.words
}

// Set is an immutable, duplicate-free, ascending-sorted set of keyword IDs.
// The nil slice is the empty set.
type Set []ID

// NewSet builds a Set from ids, sorting and de-duplicating.
func NewSet(ids ...ID) Set {
	if len(ids) == 0 {
		return nil
	}
	s := make(Set, len(ids))
	copy(s, ids)
	slices.Sort(s)
	out := s[:1]
	for _, id := range s[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// Len returns the number of keywords in s.
func (s Set) Len() int { return len(s) }

// IsEmpty reports whether s has no keywords.
func (s Set) IsEmpty() bool { return len(s) == 0 }

// Contains reports whether id is in s.
func (s Set) Contains(id ID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// Intersects reports whether s and t share at least one keyword.
// Objects with Intersects(q.ψ) are the paper's "relevant objects".
func (s Set) Intersects(t Set) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			return true
		case s[i] < t[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Covers reports whether t ⊆ s.
func (s Set) Covers(t Set) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			i++
			j++
		case s[i] < t[j]:
			i++
		default:
			return false
		}
	}
	return j == len(t)
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < t[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	if len(s) == 0 {
		return append(Set(nil), t...)
	}
	if len(t) == 0 {
		return append(Set(nil), s...)
	}
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		default:
			out = append(out, t[j])
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Subtract returns s \ t.
func (s Set) Subtract(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) {
		switch {
		case j >= len(t) || s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] == t[j]:
			i++
			j++
		default:
			j++
		}
	}
	return out
}

// Equal reports whether s and t contain exactly the same keywords.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// String formats the set's raw IDs; use Format for human-readable words.
func (s Set) String() string {
	return fmt.Sprintf("%v", []ID(s))
}

// Format renders s using words from v, for diagnostics and examples.
func (s Set) Format(v *Vocabulary) string {
	out := "{"
	for i, id := range s {
		if i > 0 {
			out += ", "
		}
		out += v.Word(id)
	}
	return out + "}"
}

// MaxQueryKeywords is the largest query keyword set a Mask can track.
// The paper's experiments use |q.ψ| ≤ 15; 64 leaves generous headroom.
const MaxQueryKeywords = 64

// Mask is a coverage bitmask over the keywords of one specific query,
// produced by a QueryIndex. Bit i set means query keyword i is covered.
type Mask uint64

// Count returns the number of covered query keywords.
func (m Mask) Count() int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

// QueryIndex maps a query's keyword set to bit positions so per-candidate
// coverage tests cost one word of arithmetic instead of a set merge. It is
// the hot-path representation used throughout the search algorithms.
type QueryIndex struct {
	keywords Set
	pos      map[ID]uint
	full     Mask
}

// NewQueryIndex builds the index for query keyword set q.
// It panics when len(q) exceeds MaxQueryKeywords, or when q is not a Set
// (ascending, duplicate-free): MaskOf's merge and the IR-tree's narrowed
// slot lookup read the keywords in that order.
func NewQueryIndex(q Set) *QueryIndex {
	if len(q) > MaxQueryKeywords {
		panic(fmt.Sprintf("kwds: query keyword set of size %d exceeds limit %d", len(q), MaxQueryKeywords))
	}
	for i := 1; i < len(q); i++ {
		if q[i] <= q[i-1] {
			panic(fmt.Sprintf("kwds: query keywords %v are not ascending and duplicate-free", q))
		}
	}
	qi := &QueryIndex{
		keywords: q,
		pos:      make(map[ID]uint, len(q)),
	}
	for i, id := range q {
		qi.pos[id] = uint(i)
		qi.full |= 1 << uint(i)
	}
	return qi
}

// Keywords returns the query keyword set the index was built for.
func (qi *QueryIndex) Keywords() Set { return qi.keywords }

// Full returns the mask with every query keyword covered.
func (qi *QueryIndex) Full() Mask { return qi.full }

// Size returns the number of query keywords.
func (qi *QueryIndex) Size() int { return len(qi.keywords) }

// MaskOf returns the coverage contribution of an object keyword set: the
// bits of the query keywords that s contains.
func (qi *QueryIndex) MaskOf(s Set) Mask {
	var m Mask
	// Iterate the smaller side for speed: query sets are tiny, object sets
	// are small; merging the two sorted slices is cheapest of all.
	i, j := 0, 0
	q := qi.keywords
	for i < len(q) && j < len(s) {
		switch {
		case q[i] == s[j]:
			m |= 1 << uint(i)
			i++
			j++
		case q[i] < s[j]:
			i++
		default:
			j++
		}
	}
	return m
}

// Bit returns the mask bit for a single query keyword id, or 0 when id is
// not a keyword of this query.
func (qi *QueryIndex) Bit(id ID) Mask {
	p, ok := qi.pos[id]
	if !ok {
		return 0
	}
	return 1 << p
}

// Uncovered returns the query keywords whose bits are unset in m.
func (qi *QueryIndex) Uncovered(m Mask) Set {
	var out Set
	for i, id := range qi.keywords {
		if m&(1<<uint(i)) == 0 {
			out = append(out, id)
		}
	}
	return out
}
