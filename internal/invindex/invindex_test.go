package invindex

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

func buildSample() (*dataset.Dataset, map[string]kwds.ID) {
	b := dataset.NewBuilder("s")
	ids := map[string]kwds.ID{}
	for _, w := range []string{"a", "b", "c", "d"} {
		ids[w] = b.Vocab().Intern(w)
	}
	b.Add(geo.Point{X: 0, Y: 0}, "a", "b")
	b.Add(geo.Point{X: 1, Y: 0}, "a")
	b.Add(geo.Point{X: 2, Y: 0}, "a", "c")
	b.Add(geo.Point{X: 3, Y: 0}, "b", "c")
	return b.Build(), ids
}

func TestPostingsAndFrequency(t *testing.T) {
	ds, ids := buildSample()
	idx := Build(ds)
	if got := idx.Postings(ids["a"]); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("postings(a) = %v", got)
	}
	if idx.Frequency(ids["b"]) != 2 || idx.Frequency(ids["c"]) != 2 {
		t.Fatal("frequency wrong")
	}
	if idx.Frequency(ids["d"]) != 0 {
		t.Fatal("unused keyword should have frequency 0")
	}
	if idx.Frequency(kwds.ID(999)) != 0 {
		t.Fatal("unknown keyword should have frequency 0")
	}
}

func TestByFrequency(t *testing.T) {
	ds, ids := buildSample()
	idx := Build(ds)
	ranked := idx.ByFrequency()
	if len(ranked) != 3 {
		t.Fatalf("ranked = %v (d has no postings)", ranked)
	}
	if ranked[0] != ids["a"] {
		t.Fatalf("most frequent should be a, got %v", ranked[0])
	}
	for i := 1; i < len(ranked); i++ {
		if idx.Frequency(ranked[i]) > idx.Frequency(ranked[i-1]) {
			t.Fatal("not sorted by descending frequency")
		}
	}
}

func TestRelevant(t *testing.T) {
	ds, ids := buildSample()
	idx := Build(ds)
	rel := idx.Relevant(kwds.NewSet(ids["b"], ids["c"]))
	want := []dataset.ObjectID{0, 2, 3}
	if len(rel) != len(want) {
		t.Fatalf("relevant = %v", rel)
	}
	for i := range want {
		if rel[i] != want[i] {
			t.Fatalf("relevant = %v, want %v", rel, want)
		}
	}
	if got := idx.Relevant(nil); len(got) != 0 {
		t.Fatal("relevant of empty query should be empty")
	}
}

func TestRandomizedAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := dataset.NewBuilder("r")
	vocab := make([]kwds.ID, 30)
	for i := range vocab {
		vocab[i] = b.Vocab().Intern(string(rune('a' + i)))
	}
	for i := 0; i < 500; i++ {
		k := 1 + rng.Intn(5)
		ids := make([]kwds.ID, k)
		for j := range ids {
			ids[j] = vocab[rng.Intn(30)]
		}
		b.AddIDs(geo.Point{X: rng.Float64(), Y: rng.Float64()}, kwds.NewSet(ids...))
	}
	ds := b.Build()
	idx := Build(ds)

	for _, kw := range vocab {
		var want []dataset.ObjectID
		for i := range ds.Objects {
			if ds.Objects[i].Keywords.Contains(kw) {
				want = append(want, ds.Objects[i].ID)
			}
		}
		got := idx.Postings(kw)
		if len(got) != len(want) {
			t.Fatalf("kw %v: %d postings, want %d", kw, len(got), len(want))
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatal("postings not sorted")
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kw %v: postings mismatch", kw)
			}
		}
	}

	q := kwds.NewSet(vocab[0], vocab[5], vocab[9])
	rel := idx.Relevant(q)
	wantRel := map[dataset.ObjectID]bool{}
	for i := range ds.Objects {
		if ds.Objects[i].Keywords.Intersects(q) {
			wantRel[ds.Objects[i].ID] = true
		}
	}
	if len(rel) != len(wantRel) {
		t.Fatalf("relevant count %d, want %d", len(rel), len(wantRel))
	}
}

// TestEditorCopiesOnlyTouchedLists: an editor's index equals a Build over
// the edited objects list for list, the base index is left as it was, and
// every list the edits did not touch is shared, not copied.
func TestEditorCopiesOnlyTouchedLists(t *testing.T) {
	ds, ids := buildSample()
	base := Build(ds)
	before := Build(ds)

	e := base.Edit()
	e.Remove(ids["a"], 1) // object 1 drops a, its only word …
	e.Add(ids["d"], 1)    // … for d, which nothing carried
	e.Add(ids["b"], 2)    // a middle insert: b is [0 3]
	e.Add(kwds.ID(9), 4)  // a word past the base's keyword range
	e.Remove(ids["c"], 7) // absent: a no-op that still copies the list
	if got := e.Touched(); !reflect.DeepEqual(got, []kwds.ID{ids["a"], ids["b"], ids["c"], ids["d"], 9}) {
		t.Fatalf("Touched() = %v", got)
	}
	if e.Frequency(ids["a"]) != 2 || e.Frequency(kwds.ID(50)) != 0 {
		t.Fatalf("Frequency while editing: a=%d, unseen=%d", e.Frequency(ids["a"]), e.Frequency(kwds.ID(50)))
	}
	got := e.Done()
	for _, tc := range []struct {
		kw   kwds.ID
		want []dataset.ObjectID
	}{
		{ids["a"], []dataset.ObjectID{0, 2}}, {ids["b"], []dataset.ObjectID{0, 2, 3}}, {ids["c"], []dataset.ObjectID{2, 3}},
		{ids["d"], []dataset.ObjectID{1}}, {9, []dataset.ObjectID{4}}, {5, nil},
	} {
		if l := got.Postings(tc.kw); !slices.Equal(l, tc.want) {
			t.Fatalf("edited postings(%d) = %v, want %v", tc.kw, l, tc.want)
		}
	}
	for kw := kwds.ID(0); kw < 12; kw++ {
		if !reflect.DeepEqual(base.Postings(kw), before.Postings(kw)) {
			t.Fatalf("the edit changed the base's postings(%d): %v, was %v", kw, base.Postings(kw), before.Postings(kw))
		}
	}

	// Untouched lists are shared with the base.
	e2 := got.Edit()
	e2.Add(ids["a"], 5)
	next := e2.Done()
	if &next.Postings(ids["b"])[0] != &got.Postings(ids["b"])[0] {
		t.Fatal("an untouched posting list was copied")
	}
	if &next.Postings(ids["a"])[0] == &got.Postings(ids["a"])[0] {
		t.Fatal("a touched posting list was written in place")
	}
	if ranked := next.ByFrequency(); len(ranked) != 5 || ranked[0] != ids["a"] && ranked[0] != ids["b"] {
		t.Fatalf("ByFrequency over an edited index = %v", ranked)
	}
}
