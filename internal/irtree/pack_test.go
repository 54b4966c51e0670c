package irtree

import (
	"math/rand"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

// checkBuilt asserts what every consumer of a built tree relies on: it
// indexes all of ds, and CheckInvariants holds — structure, every object
// reached exactly once at its own point, every inverted file.
func checkBuilt(t *testing.T, tr *Tree, ds *dataset.Dataset) {
	t.Helper()
	if tr.Len() != ds.Len() {
		t.Fatalf("Len = %d, want %d", tr.Len(), ds.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// pointsDataset returns a dataset with one object per point, each holding
// one of three words.
func pointsDataset(pts []geo.Point) *dataset.Dataset {
	b := dataset.NewBuilder("points")
	for i, p := range pts {
		b.AddIDs(p, kwds.NewSet(b.Vocab().Intern(word(i%3))))
	}
	return b.Build()
}

func TestEmptyTree(t *testing.T) {
	ds := dataset.NewBuilder("empty").Build()
	tr := Build(ds, 0)
	if tr.Len() != 0 || tr.Height() != 1 || tr.Nodes() != 1 {
		t.Fatalf("empty tree Len=%d Height=%d Nodes=%d", tr.Len(), tr.Height(), tr.Nodes())
	}
	if root := tr.Root(); !root.Leaf || len(root.Entries) != 0 {
		t.Fatalf("empty tree root = %+v, want an empty leaf", root)
	}
	checkBuilt(t, tr, ds)
}

func TestBulkLoadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 31, 32, 33, 100, 1000, 5000} {
		ds := genDataset(rng, n, 20, 3)
		checkBuilt(t, Build(ds, 16), ds)
	}
}

// TestBulkLoadClampsFanout: a capacity outside [4, MaxFanout] is clamped
// to the nearer end, so no node outgrows its 64 slot bits.
func TestBulkLoadClampsFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ in, want int }{{0, DefaultFanout}, {1, 4}, {64, 64}, {65, 64}, {100, 64}} {
		ds := genDataset(rng, 5000, 20, 3)
		tr := Build(ds, tc.in)
		if tr.Fanout() != tc.want {
			t.Fatalf("Build(_, %d).Fanout() = %d, want %d", tc.in, tr.Fanout(), tc.want)
		}
		checkBuilt(t, tr, ds)
	}
}

// TestInsertDuplicatePoints: fifty objects at one point pack into
// degenerate (zero-area) leaves without losing any.
func TestInsertDuplicatePoints(t *testing.T) {
	p := geo.Point{X: 5, Y: 5}
	pts := make([]geo.Point, 50)
	for i := range pts {
		pts[i] = p
	}
	ds := pointsDataset(pts)
	tr := Build(ds, 4)
	checkBuilt(t, tr, ds)
	if r := tr.Root().Rect; r != geo.RectFromPoint(p) {
		t.Fatalf("root rect %v, want the single point %v", r, p)
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := Build(genDataset(rng, 10000, 20, 3), 16)
	h := tr.Height()
	// 10000 entries at fanout 16: ceil(log16(10000/16)) + 1 ≈ 4.
	if h < 3 || h > 6 {
		t.Fatalf("unexpected height %d for 10k entries at fanout 16", h)
	}
	if tr.Nodes() < 10000/16 {
		t.Fatalf("Nodes = %d, fewer than the %d leaves 10k entries need", tr.Nodes(), 10000/16)
	}
}

// TestClusteredData: heavily clustered data (ten tight Gaussian blobs)
// exercises the STR tiling where slabs cut through dense clumps.
func TestClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var pts []geo.Point
	for c := 0; c < 10; c++ {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		for i := 0; i < 200; i++ {
			pts = append(pts, geo.Point{X: cx + rng.NormFloat64(), Y: cy + rng.NormFloat64()})
		}
	}
	ds := pointsDataset(pts)
	checkBuilt(t, Build(ds, 8), ds)
}

func BenchmarkPack10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	es := make([]Entry, 10000)
	for i := range es {
		es[i] = Entry{P: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, ID: uint32(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pack(append([]Entry(nil), es...), DefaultFanout)
	}
}
