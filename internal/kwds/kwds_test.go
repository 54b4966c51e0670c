package kwds

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestVocabularyIntern(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("restaurant")
	b := v.Intern("pool")
	if a == b {
		t.Fatal("distinct words must get distinct ids")
	}
	if v.Intern("restaurant") != a {
		t.Fatal("interning the same word twice must return the same id")
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if v.Word(a) != "restaurant" || v.Word(b) != "pool" {
		t.Fatal("Word round-trip failed")
	}
	if id, ok := v.Lookup("pool"); !ok || id != b {
		t.Fatal("Lookup failed")
	}
	if _, ok := v.Lookup("absent"); ok {
		t.Fatal("Lookup of unknown word should fail")
	}
	if len(v.Words()) != 2 {
		t.Fatal("Words length wrong")
	}
}

func TestVocabularyZeroValue(t *testing.T) {
	var v Vocabulary
	id := v.Intern("x")
	if v.Word(id) != "x" {
		t.Fatal("zero-value vocabulary should work")
	}
}

func TestNewSetSortsAndDedups(t *testing.T) {
	s := NewSet(5, 1, 3, 1, 5, 5)
	want := Set{1, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("NewSet = %v, want %v", s, want)
	}
	if NewSet() != nil {
		t.Fatal("empty NewSet should be nil")
	}
	if !NewSet().IsEmpty() {
		t.Fatal("empty set should be empty")
	}
}

func TestSetContains(t *testing.T) {
	s := NewSet(2, 4, 6, 8)
	for _, id := range []ID{2, 4, 6, 8} {
		if !s.Contains(id) {
			t.Errorf("should contain %d", id)
		}
	}
	for _, id := range []ID{0, 1, 3, 5, 7, 9} {
		if s.Contains(id) {
			t.Errorf("should not contain %d", id)
		}
	}
}

func TestSetAlgebraSmall(t *testing.T) {
	a := NewSet(1, 2, 3)
	b := NewSet(3, 4)
	if !a.Intersects(b) {
		t.Error("a and b share 3")
	}
	if a.Intersects(NewSet(9)) {
		t.Error("a and {9} are disjoint")
	}
	if got := a.Intersect(b); !got.Equal(NewSet(3)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b); !got.Equal(NewSet(1, 2, 3, 4)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Subtract(b); !got.Equal(NewSet(1, 2)) {
		t.Errorf("Subtract = %v", got)
	}
	if !a.Covers(NewSet(1, 3)) {
		t.Error("a covers {1,3}")
	}
	if a.Covers(b) {
		t.Error("a does not cover b")
	}
	if !a.Covers(nil) {
		t.Error("every set covers the empty set")
	}
	if !Set(nil).Covers(nil) {
		t.Error("empty covers empty")
	}
	if Set(nil).Covers(a) {
		t.Error("empty does not cover a")
	}
}

// mapSet is the reference implementation the properties compare against.
type mapSet map[ID]bool

func toMap(s Set) mapSet {
	m := make(mapSet, len(s))
	for _, id := range s {
		m[id] = true
	}
	return m
}

func fromMap(m mapSet) Set {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	return NewSet(ids...)
}

func genSet(rng *rand.Rand, maxID, maxLen int) Set {
	n := rng.Intn(maxLen + 1)
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(rng.Intn(maxID))
	}
	return NewSet(ids...)
}

func TestSetAlgebraAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 2000; i++ {
		a := genSet(rng, 30, 12)
		b := genSet(rng, 30, 12)
		ma, mb := toMap(a), toMap(b)

		inter := make(mapSet)
		for id := range ma {
			if mb[id] {
				inter[id] = true
			}
		}
		union := make(mapSet)
		for id := range ma {
			union[id] = true
		}
		for id := range mb {
			union[id] = true
		}
		diff := make(mapSet)
		for id := range ma {
			if !mb[id] {
				diff[id] = true
			}
		}
		if !a.Intersect(b).Equal(fromMap(inter)) {
			t.Fatalf("Intersect(%v, %v) = %v, want %v", a, b, a.Intersect(b), fromMap(inter))
		}
		if !a.Union(b).Equal(fromMap(union)) {
			t.Fatalf("Union(%v, %v) = %v, want %v", a, b, a.Union(b), fromMap(union))
		}
		if !a.Subtract(b).Equal(fromMap(diff)) {
			t.Fatalf("Subtract(%v, %v) = %v, want %v", a, b, a.Subtract(b), fromMap(diff))
		}
		if a.Intersects(b) != (len(inter) > 0) {
			t.Fatalf("Intersects(%v, %v) = %v, want %v", a, b, a.Intersects(b), len(inter) > 0)
		}
		covers := true
		for id := range mb {
			if !ma[id] {
				covers = false
				break
			}
		}
		if a.Covers(b) != covers {
			t.Fatalf("Covers(%v, %v) = %v, want %v", a, b, a.Covers(b), covers)
		}
	}
}

func TestSetInvariants(t *testing.T) {
	sortedDedup := func(raw []uint32) bool {
		ids := make([]ID, len(raw))
		for i, r := range raw {
			ids[i] = ID(r % 100)
		}
		s := NewSet(ids...)
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
			return false
		}
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(sortedDedup, nil); err != nil {
		t.Error(err)
	}
}

func TestMaskCount(t *testing.T) {
	cases := []struct {
		m    Mask
		want int
	}{
		{0, 0}, {1, 1}, {0b1011, 3}, {1 << 63, 1}, {^Mask(0), 64},
	}
	for _, c := range cases {
		if got := c.m.Count(); got != c.want {
			t.Errorf("Count(%b) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestQueryIndex(t *testing.T) {
	q := NewSet(10, 20, 30)
	qi := NewQueryIndex(q)
	if qi.Size() != 3 {
		t.Fatalf("Size = %d", qi.Size())
	}
	if qi.Full().Count() != 3 {
		t.Fatalf("Full count = %d", qi.Full().Count())
	}
	if !qi.Keywords().Equal(q) {
		t.Fatal("Keywords mismatch")
	}

	m := qi.MaskOf(NewSet(20, 99))
	if m.Count() != 1 || m != qi.Bit(20) {
		t.Fatalf("MaskOf = %b", m)
	}
	if qi.Bit(99) != 0 {
		t.Fatal("Bit of non-query keyword should be 0")
	}
	if qi.MaskOf(NewSet(1, 2, 3)) != 0 {
		t.Fatal("disjoint object should contribute no bits")
	}
	if qi.MaskOf(q) != qi.Full() {
		t.Fatal("object equal to query covers all")
	}

	unc := qi.Uncovered(qi.Bit(10) | qi.Bit(30))
	if !unc.Equal(NewSet(20)) {
		t.Fatalf("Uncovered = %v", unc)
	}
	if qi.Uncovered(qi.Full()) != nil {
		t.Fatal("Uncovered of full mask should be empty")
	}
}

func TestQueryIndexMaskOfAgreesWithIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		q := genSet(rng, 50, 15)
		o := genSet(rng, 50, 15)
		qi := NewQueryIndex(q)
		if got, want := qi.MaskOf(o).Count(), q.Intersect(o).Len(); got != want {
			t.Fatalf("MaskOf(%v over %v).Count = %d, want %d", o, q, got, want)
		}
	}
}

func TestQueryIndexPanicsOnOversizedQuery(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized query")
		}
	}()
	big := make([]ID, MaxQueryKeywords+1)
	for i := range big {
		big[i] = ID(i)
	}
	NewQueryIndex(NewSet(big...))
}

// TestQueryIndexPanicsOnUnsortedQuery: a query that is not a Set —
// out of order, or with a duplicate — is a caller's bug that MaskOf's
// merge and the IR-tree's narrowed slot lookup would answer wrongly.
func TestQueryIndexPanicsOnUnsortedQuery(t *testing.T) {
	for _, q := range []Set{{3, 1}, {1, 2, 2}, {1, 4, 3, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewQueryIndex(%v) did not panic", q)
				}
			}()
			NewQueryIndex(q)
		}()
	}
}

func TestFormat(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("cafe")
	b := v.Intern("museum")
	s := NewSet(a, b)
	if got := s.Format(v); got != "{cafe, museum}" {
		t.Fatalf("Format = %q", got)
	}
	if got := Set(nil).Format(v); got != "{}" {
		t.Fatalf("empty Format = %q", got)
	}
}

// TestVocabularyRetireReviveClone: a retired word is unknown and
// uncounted yet keeps its id, which a later Intern revives; a clone
// shares nothing mutable with its source.
func TestVocabularyRetireReviveClone(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("a")
	v.Intern("b")
	c := v.Clone()

	v.Retire(a)
	v.Retire(a) // idempotent
	if _, ok := v.Lookup("a"); ok || v.Len() != 1 {
		t.Fatalf("after Retire: a known=%v, Len=%d", ok, v.Len())
	}
	if v.Word(a) != "a" || len(v.Words()) != 2 {
		t.Fatalf("a retired id must still resolve: Word=%q, Words=%v", v.Word(a), v.Words())
	}
	if id, ok := c.Lookup("a"); !ok || id != a || c.Len() != 2 {
		t.Fatalf("the clone saw the retire: a=%d known=%v Len=%d", id, ok, c.Len())
	}

	fresh := v.Intern("c")
	if got := v.Intern("a"); got != a {
		t.Fatalf("revived a under id %d, want its old id %d", got, a)
	}
	if id, ok := v.Lookup("a"); !ok || id != a || v.Len() != 3 || fresh != 2 {
		t.Fatalf("after revival: a=%d known=%v Len=%d, c=%d", id, ok, v.Len(), fresh)
	}
	if _, ok := c.Lookup("c"); ok || len(c.Words()) != 2 {
		t.Fatalf("the clone saw an Intern on its source: Words=%v", c.Words())
	}
	if got := c.Intern("z"); got != 2 || v.Word(2) != "c" {
		t.Fatalf("clone and source share word storage: clone z=%d, source word 2 = %q", got, v.Word(2))
	}
}
