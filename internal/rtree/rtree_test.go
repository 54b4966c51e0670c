package rtree

import (
	"math/rand"
	"reflect"
	"slices"
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

// TestBulkLoadClampsFanout: a capacity outside [4, MaxFanout] is clamped
// to the nearer end, so no node outgrows the IR-tree's 64 slot bits.
func TestBulkLoadClampsFanout(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ in, want int }{{0, DefaultFanout}, {1, 4}, {64, 64}, {65, 64}, {100, 64}} {
		es := randEntries(rng, 5000)
		tr := BulkLoad(append([]Entry(nil), es...), tc.in)
		if tr.Fanout() != tc.want {
			t.Fatalf("BulkLoad(_, %d).Fanout() = %d, want %d", tc.in, tr.Fanout(), tc.want)
		}
		checkLoaded(t, tr, es)
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

// nodeSnap is a deep copy of one node: everything an edit could disturb.
type nodeSnap struct {
	id       int
	rect     geo.Rect
	leaf     bool
	entries  []Entry
	children []nodeSnap
}

func snapshot(n *Node) nodeSnap {
	s := nodeSnap{id: n.NodeID, rect: n.Rect, leaf: n.Leaf, entries: append([]Entry(nil), n.Entries...)}
	for _, c := range n.Children {
		s.children = append(s.children, snapshot(c))
	}
	return s
}

// TestEditorAgainstModel drives seeded random insert / delete / re-id
// batches through the editor and checks, after every batch, (1) the
// structural invariants, (2) that the derived tree holds exactly the
// model's entries, and (3) persistence: the tree the batch started from
// compares deep-equal to the snapshot taken before the edit — the editor
// wrote no node a published root can reach.
func TestEditorAgainstModel(t *testing.T) {
	for _, tc := range []struct {
		seed          int64
		fanout, start int
		pInsert       float64
	}{
		{seed: 1, fanout: 4, start: 0, pInsert: 0.6},    // grows from empty, many splits
		{seed: 2, fanout: 8, start: 300, pInsert: 0.35}, // shrinks: dropped nodes, root collapse
		{seed: 3, fanout: 32, start: 2000, pInsert: 0.45},
		{seed: 4, fanout: 4, start: 40, pInsert: 0.1}, // drains to the empty tree
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		model := randEntries(rng, tc.start)
		nextID := uint32(len(model))
		tr := BulkLoad(append([]Entry(nil), model...), tc.fanout)
		for batch := 0; batch < 60; batch++ {
			before, beforeTree := snapshot(tr.Root()), *tr
			ed := tr.Edit()
			for op := 0; op < 16; op++ {
				switch r := rng.Float64(); {
				case r < tc.pInsert || len(model) == 0:
					e := Entry{P: geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, ID: nextID}
					if rng.Intn(8) == 0 && len(model) > 0 {
						e.P = model[rng.Intn(len(model))].P // a duplicate point under a new id
					}
					nextID++
					ed.Insert(e)
					model = append(model, e)
				case r < tc.pInsert+0.15:
					i := rng.Intn(len(model))
					if !ed.ReID(model[i].P, model[i].ID, nextID) {
						t.Fatalf("seed %d: ReID missed %v", tc.seed, model[i])
					}
					model[i].ID = nextID
					nextID++
				default:
					i := rng.Intn(len(model))
					if !ed.Delete(model[i].P, model[i].ID) {
						t.Fatalf("seed %d: Delete missed %v", tc.seed, model[i])
					}
					model[i] = model[len(model)-1]
					model = model[:len(model)-1]
				}
			}
			if ed.Delete(geo.Point{X: -1, Y: -1}, 0) || ed.ReID(geo.Point{X: -1, Y: -1}, 0, 1) {
				t.Fatalf("seed %d: edit of an absent entry reported success", tc.seed)
			}
			next := ed.Tree()
			checkLoaded(t, next, model)
			if got := snapshot(tr.Root()); !reflect.DeepEqual(got, before) || *tr != beforeTree {
				t.Fatalf("seed %d batch %d: the edit wrote into the tree it started from", tc.seed, batch)
			}
			if next.NumNodes()-tr.NumNodes() != ed.Cloned() {
				t.Fatalf("seed %d: Cloned() = %d, NodeID bound moved by %d", tc.seed, ed.Cloned(), next.NumNodes()-tr.NumNodes())
			}
			tr = next
		}
		if tc.seed == 4 && tr.Len() != 0 {
			// Finish the drain so the empty-tree path is certainly taken.
			ed := tr.Edit()
			for _, e := range model {
				ed.Delete(e.P, e.ID)
			}
			tr, model = ed.Tree(), nil
			checkLoaded(t, tr, nil)
			if !tr.Root().Leaf || tr.Height() != 1 {
				t.Fatalf("drained tree root = %+v", tr.Root())
			}
		}
	}
}

// TestEditorSharesUntouchedSubtrees: one insert clones one root-to-leaf
// path — plus at most one split sibling per level and a new root, since
// STR packs every node full — and nothing else.
func TestEditorSharesUntouchedSubtrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := BulkLoad(randEntries(rng, 5000), 16)
	ed := tr.Edit()
	ed.Insert(Entry{P: geo.Point{X: 500, Y: 500}, ID: 5000})
	if got, h := ed.Cloned(), tr.Height(); got < h || got > 2*h+1 {
		t.Fatalf("one insert cloned %d nodes, want the %d-node path and at most %d split nodes", got, h, h+1)
	}
	next := ed.Tree()
	shared := 0
	for _, c := range next.Root().Children {
		if slices.Contains(tr.Root().Children, c) {
			shared++
		}
	}
	if shared < len(tr.Root().Children)-1 {
		t.Fatalf("only %d of %d root children shared after one insert", shared, len(tr.Root().Children))
	}
}
