package irtree

import (
	"math"
	"math/rand"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/rtree"
)

// genDataset builds a random dataset with vocab words w0..w{vocab-1}.
func genDataset(rng *rand.Rand, n, vocab, maxKw int) *dataset.Dataset {
	b := dataset.NewBuilder("gen")
	words := make([]kwds.ID, vocab)
	for i := range words {
		words[i] = b.Vocab().Intern(word(i))
	}
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(maxKw)
		ids := make([]kwds.ID, k)
		for j := range ids {
			ids[j] = words[rng.Intn(vocab)]
		}
		b.AddIDs(geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, kwds.NewSet(ids...))
	}
	return b.Build()
}

func word(i int) string {
	return "w" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

// bruteNN is the linear-scan oracle for keyword NN.
func bruteNN(ds *dataset.Dataset, p geo.Point, kw kwds.ID) (dataset.ObjectID, float64, bool) {
	best, bestD, found := dataset.ObjectID(0), math.Inf(1), false
	for i := range ds.Objects {
		o := &ds.Objects[i]
		if !o.Keywords.Contains(kw) {
			continue
		}
		if d := p.Dist(o.Loc); d < bestD {
			best, bestD, found = o.ID, d, true
		}
	}
	return best, bestD, found
}

func TestBuildAnnotations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := genDataset(rng, 500, 20, 4)
	tr := Build(ds, 8)
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Root keyword union must cover every object's keywords.
	rootKw := tr.nodeKw[tr.Root().NodeID]
	for i := range ds.Objects {
		if !rootKw.Covers(ds.Objects[i].Keywords) {
			t.Fatalf("root union misses keywords of object %d", i)
		}
	}
	// Every node's union must exactly equal the union of its children
	// (or of its objects, at leaves).
	var rec func(n *rtree.Node)
	rec = func(n *rtree.Node) {
		var parts kwds.Set
		if n.Leaf {
			for _, e := range n.Entries {
				parts = parts.Union(ds.Object(dataset.ObjectID(e.ID)).Keywords)
			}
		} else {
			for _, c := range n.Children {
				parts = parts.Union(tr.nodeKw[c.NodeID])
				rec(c)
			}
		}
		if !tr.nodeKw[n.NodeID].Equal(parts) {
			t.Fatalf("node %d union %v != recomputed %v", n.NodeID, tr.nodeKw[n.NodeID], parts)
		}
	}
	rec(tr.Root())
}

func TestNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := genDataset(rng, 2000, 40, 5)
	tr := Build(ds, 16)
	for trial := 0; trial < 200; trial++ {
		p := geo.Point{X: rng.Float64() * 1100, Y: rng.Float64() * 1100}
		kw := kwds.ID(rng.Intn(40))
		wantID, wantD, wantOK := bruteNN(ds, p, kw)
		gotID, gotD, gotOK := tr.NN(p, kw)
		if gotOK != wantOK {
			t.Fatalf("NN ok mismatch for kw %d", kw)
		}
		if !wantOK {
			continue
		}
		if math.Abs(gotD-wantD) > 1e-9 {
			t.Fatalf("NN dist %v, want %v (ids %d vs %d)", gotD, wantD, gotID, wantID)
		}
	}
}

func TestNNMissingKeyword(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := genDataset(rng, 100, 10, 3)
	tr := Build(ds, 8)
	if _, _, ok := tr.NN(geo.Point{}, kwds.ID(999)); ok {
		t.Fatal("NN of absent keyword should report !ok")
	}
}

func TestRelevantNNIteratorOrderAndCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := genDataset(rng, 1500, 40, 4)
	tr := Build(ds, 16)
	query := kwds.NewSet(1, 5, 9)
	qi := kwds.NewQueryIndex(query)
	p := geo.Point{X: 300, Y: 700}

	want := map[dataset.ObjectID]bool{}
	for i := range ds.Objects {
		if qi.MaskOf(ds.Objects[i].Keywords) != 0 {
			want[ds.Objects[i].ID] = true
		}
	}

	it := tr.NewRelevantNNIterator(p, qi)
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
		if math.Abs(d-p.Dist(o.Loc)) > 1e-9 {
			t.Fatal("reported distance wrong")
		}
		if qi.MaskOf(o.Keywords) == 0 {
			t.Fatal("irrelevant object yielded")
		}
		prev = d
		got[o.ID] = true
	}
	if len(got) != len(want) {
		t.Fatalf("iterator yielded %d of %d relevant objects", len(got), len(want))
	}
}

func TestEmptyDatasetTree(t *testing.T) {
	ds := dataset.NewBuilder("empty").Build()
	tr := Build(ds, 8)
	if _, _, ok := tr.NN(geo.Point{}, 0); ok {
		t.Fatal("NN on empty tree should fail")
	}
	qi := kwds.NewQueryIndex(kwds.NewSet(0))
	it := tr.NewRelevantNNIterator(geo.Point{}, qi)
	if _, _, ok := it.Next(); ok {
		t.Fatal("iterator on empty tree should be exhausted")
	}
}

func BenchmarkBuild10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := genDataset(rng, 10000, 200, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(ds, 0)
	}
}

func BenchmarkKeywordNN(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	ds := genDataset(rng, 100000, 500, 6)
	tr := Build(ds, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.NN(geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, kwds.ID(i%500))
	}
}

func TestTreeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ds := genDataset(rng, 1000, 30, 4)
	tr := Build(ds, 8)
	s := tr.Stats()
	if s.Objects != 1000 {
		t.Fatalf("Objects = %d", s.Objects)
	}
	if s.Height != tr.Height() || s.Height < 2 {
		t.Fatalf("Height = %d", s.Height)
	}
	if s.Nodes < 1000/8 {
		t.Fatalf("Nodes = %d seems too small", s.Nodes)
	}
	// Root union alone contributes its length; totals must be at least
	// the root's and at most nodes × vocab.
	root := len(tr.nodeKw[tr.Root().NodeID])
	if s.KeywordUnions < root || s.KeywordUnions > s.Nodes*30 {
		t.Fatalf("KeywordUnions = %d (root %d, nodes %d)", s.KeywordUnions, root, s.Nodes)
	}
}
