package invindex

import (
	"math/rand"
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
