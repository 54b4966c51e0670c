package irtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

func TestKeywordNNIteratorOrderAndCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ds := genDataset(rng, 2000, 30, 4)
	tr := Build(ds, 16)
	for trial := 0; trial < 20; trial++ {
		kw := kwds.ID(rng.Intn(30))
		p := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}

		want := map[dataset.ObjectID]bool{}
		for i := range ds.Objects {
			if ds.Objects[i].Keywords.Contains(kw) {
				want[ds.Objects[i].ID] = true
			}
		}

		it := tr.NewKeywordNNIterator(p, kw)
		prev := -1.0
		got := map[dataset.ObjectID]bool{}
		for {
			o, d, ok := it.Next()
			if !ok {
				break
			}
			if d < prev-1e-12 {
				t.Fatalf("distances not ascending: %v after %v", d, prev)
			}
			if !o.Keywords.Contains(kw) {
				t.Fatal("object without the keyword yielded")
			}
			if math.Abs(d-p.Dist(o.Loc)) > 1e-9 {
				t.Fatal("reported distance wrong")
			}
			prev = d
			got[o.ID] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: yielded %d of %d objects with keyword %v", trial, len(got), len(want), kw)
		}
	}
}

func TestKeywordNNIteratorAbsentKeyword(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ds := genDataset(rng, 100, 10, 3)
	tr := Build(ds, 8)
	it := tr.NewKeywordNNIterator(geo.Point{}, kwds.ID(9999))
	if _, _, ok := it.Next(); ok {
		t.Fatal("iterator over absent keyword should be exhausted immediately")
	}
}

// The iterator's prefix must agree with repeated NN queries.
func TestKeywordNNIteratorAgreesWithNN(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ds := genDataset(rng, 1000, 15, 3)
	tr := Build(ds, 8)
	p := geo.Point{X: 321, Y: 654}
	kw := kwds.ID(3)
	it := tr.NewKeywordNNIterator(p, kw)
	first, d1, ok := it.Next()
	if !ok {
		t.Skip("keyword absent under this seed")
	}
	nnID, d2, ok := tr.NN(p, kw)
	if !ok || math.Abs(d1-d2) > 1e-12 {
		t.Fatalf("iterator first (%d at %v) != NN (%d at %v)", first.ID, d1, nnID, d2)
	}
}

// TestBooleanKNNMatchesBruteForce: boolean kNN returns exactly the k
// nearest objects covering every query keyword.
func TestBooleanKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ds := genDataset(rng, 3000, 12, 5) // small vocab so full covers exist
	tr := Build(ds, 16)
	for trial := 0; trial < 60; trial++ {
		query := kwds.NewSet(kwds.ID(rng.Intn(12)), kwds.ID(rng.Intn(12)))
		p := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		k := 1 + rng.Intn(8)

		type cand struct {
			id dataset.ObjectID
			d  float64
		}
		var want []cand
		for i := range ds.Objects {
			o := &ds.Objects[i]
			if o.Keywords.Covers(query) {
				want = append(want, cand{id: o.ID, d: p.Dist(o.Loc)})
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].d < want[j].d })
		if len(want) > k {
			want = want[:k]
		}
		got := tr.BooleanKNN(p, query, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Abs(p.Dist(ds.Object(got[i]).Loc)-want[i].d) > 1e-9 {
				t.Fatalf("trial %d rank %d: distance mismatch", trial, i)
			}
			if !ds.Object(got[i]).Keywords.Covers(query) {
				t.Fatalf("trial %d rank %d: result does not cover the query", trial, i)
			}
		}
	}
	if got := tr.BooleanKNN(geo.Point{}, kwds.NewSet(0, 1), 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := tr.BooleanKNN(geo.Point{}, kwds.NewSet(999), 5); len(got) != 0 {
		t.Fatal("uncoverable query should return nothing")
	}
}

// TestRelevantNNIteratorLimit: the limit cuts off the stream exactly at
// the threshold and never reorders or drops nearer objects.
func TestRelevantNNIteratorLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ds := genDataset(rng, 1500, 20, 4)
	tr := Build(ds, 16)
	qi := kwds.NewQueryIndex(kwds.NewSet(1, 4, 7))
	p := geo.Point{X: 500, Y: 500}

	// Reference: unlimited stream.
	var refIDs []dataset.ObjectID
	var refDs []float64
	ref := tr.NewRelevantNNIterator(p, qi)
	for {
		o, d, ok := ref.Next()
		if !ok {
			break
		}
		refIDs = append(refIDs, o.ID)
		refDs = append(refDs, d)
	}
	if len(refIDs) < 10 {
		t.Skip("too few relevant objects under this seed")
	}

	limit := refDs[len(refDs)/2]
	it := tr.NewRelevantNNIterator(p, qi)
	it.Limit(limit)
	i := 0
	for {
		o, d, ok := it.Next()
		if !ok {
			break
		}
		if d >= limit {
			t.Fatalf("object at %v yielded despite limit %v", d, limit)
		}
		if o.ID != refIDs[i] && refDs[i] != d {
			t.Fatalf("limited stream diverged at %d", i)
		}
		i++
	}
	// Everything strictly below the limit must have been yielded.
	want := 0
	for _, d := range refDs {
		if d < limit {
			want++
		}
	}
	if i != want {
		t.Fatalf("limited stream yielded %d, want %d", i, want)
	}

	// Tightening mid-stream works; loosening is ignored.
	it2 := tr.NewRelevantNNIterator(p, qi)
	it2.Limit(refDs[len(refDs)-1] + 1)
	if _, _, ok := it2.Next(); !ok {
		t.Fatal("first object should pass the loose limit")
	}
	it2.Limit(refDs[1])
	it2.Limit(refDs[len(refDs)-1] + 100) // looser: must be ignored
	for {
		_, d, ok := it2.Next()
		if !ok {
			break
		}
		if d >= refDs[1] {
			t.Fatalf("tightened limit violated: %v >= %v", d, refDs[1])
		}
	}
}
