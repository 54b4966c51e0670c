package rtree

import (
	"math/rand"
	"testing"

	"coskq/internal/geo"
)

func randEntries(rng *rand.Rand, n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{P: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, ID: uint32(i)}
	}
	return es
}

// checkLoaded asserts what every consumer of a bulk-loaded tree relies on:
// the structural invariants hold, and a walk of the exported node layout
// reaches every input entry exactly once, at the point it was loaded with.
func checkLoaded(t *testing.T, tr *Tree, es []Entry) {
	t.Helper()
	if tr.Len() != len(es) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(es))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := make(map[uint32]geo.Point, len(es))
	for _, e := range es {
		want[e.ID] = e.P
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, e := range n.Entries {
			p, ok := want[e.ID]
			if !ok || p != e.P {
				t.Fatalf("leaf %d holds %v: not loaded, or reached twice", n.NodeID, e)
			}
			delete(want, e.ID)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Root())
	if len(want) != 0 {
		t.Fatalf("%d loaded entries unreachable from the root", len(want))
	}
}

func TestEmptyTree(t *testing.T) {
	tr := BulkLoad(nil, 0)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if root := tr.Root(); !root.Leaf || len(root.Entries) != 0 {
		t.Fatalf("empty tree root = %+v, want an empty leaf", root)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 31, 32, 33, 100, 1000, 5000} {
		es := randEntries(rng, n)
		checkLoaded(t, BulkLoad(append([]Entry(nil), es...), 16), es)
	}
}

// TestInsertDuplicatePoints: fifty entries at one point pack into
// degenerate (zero-area) leaves without losing any.
func TestInsertDuplicatePoints(t *testing.T) {
	p := geo.Point{X: 5, Y: 5}
	es := make([]Entry, 50)
	for i := range es {
		es[i] = Entry{P: p, ID: uint32(i)}
	}
	tr := BulkLoad(append([]Entry(nil), es...), 4)
	checkLoaded(t, tr, es)
	if r := tr.Root().Rect; r != geo.RectFromPoint(p) {
		t.Fatalf("root rect %v, want the single point %v", r, p)
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := BulkLoad(randEntries(rng, 10000), 16)
	h := tr.Height()
	// 10000 entries at fanout 16: ceil(log16(10000/16)) + 1 ≈ 4.
	if h < 3 || h > 6 {
		t.Fatalf("unexpected height %d for 10k entries at fanout 16", h)
	}
	if tr.NumNodes() <= 0 {
		t.Fatal("NumNodes should be positive")
	}
}

// TestClusteredData: heavily clustered data (ten tight Gaussian blobs)
// exercises the STR tiling where slabs cut through dense clumps.
func TestClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var es []Entry
	id := uint32(0)
	for c := 0; c < 10; c++ {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		for i := 0; i < 200; i++ {
			es = append(es, Entry{P: geo.Point{X: cx + rng.NormFloat64(), Y: cy + rng.NormFloat64()}, ID: id})
			id++
		}
	}
	checkLoaded(t, BulkLoad(append([]Entry(nil), es...), 8), es)
}

func BenchmarkBulkLoad10k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	es := randEntries(rng, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := append([]Entry(nil), es...)
		BulkLoad(cp, DefaultFanout)
	}
}
