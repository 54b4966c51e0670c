package irtree

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

func randKeywords(rng *rand.Rand, vocab int) kwds.Set {
	ids := make([]kwds.ID, 1+rng.Intn(4))
	for i := range ids {
		ids[i] = kwds.ID(rng.Intn(vocab))
	}
	return kwds.NewSet(ids...)
}

// editBatch applies ops random edits to ed under the live index's slot
// contract — an insert takes the next id, a delete moves the last object
// into the freed slot, a keyword edit re-ids an object to itself — and
// returns the objects the edited tree indexes; objs is not written. A
// share pInsert of the ops insert, with dupes one in eight at an existing
// object's point; the rest split evenly between deletes and keyword edits.
func editBatch(t testing.TB, rng *rand.Rand, ed *Editor, objs []dataset.Object, ops, vocab int, pInsert float64, dupes bool) []dataset.Object {
	t.Helper()
	objs = slices.Clone(objs)
	for op := 0; op < ops; op++ {
		switch r := rng.Float64(); {
		case r < pInsert || len(objs) == 0:
			p := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			if dupes && rng.Intn(8) == 0 && len(objs) > 0 {
				p = objs[rng.Intn(len(objs))].Loc
			}
			o := dataset.Object{ID: dataset.ObjectID(len(objs)), Loc: p, Keywords: randKeywords(rng, vocab)}
			objs = append(objs, o)
			ed.Insert(Entry{P: o.Loc, ID: uint32(o.ID)})
		case r < pInsert+(1-pInsert)/2:
			id, last := rng.Intn(len(objs)), len(objs)-1
			ok := ed.Delete(objs[id].Loc, uint32(id))
			if id != last {
				ok = ok && ed.ReID(objs[last].Loc, uint32(last), uint32(id))
				objs[id] = objs[last]
				objs[id].ID = dataset.ObjectID(id)
			}
			if !ok {
				t.Fatalf("the editor lost object %d", id)
			}
			objs = objs[:last]
		default:
			id := rng.Intn(len(objs))
			objs[id].Keywords = randKeywords(rng, vocab)
			if !ed.ReID(objs[id].Loc, uint32(id), uint32(id)) {
				t.Fatalf("the editor lost object %d", id)
			}
		}
	}
	return objs
}

// nodeSnap is a deep copy of one node: its identity and everything an
// edit could disturb, the inverted file included.
type nodeSnap struct {
	node      *Node
	rect      geo.Rect
	leaf      bool
	entries   []Entry
	kw        kwds.Set
	slots     []uint64
	annotated bool
	children  []nodeSnap
}

func snapshot(n *Node) nodeSnap {
	s := nodeSnap{node: n, rect: n.Rect, leaf: n.Leaf, entries: slices.Clone(n.Entries),
		kw: slices.Clone(n.kw), slots: slices.Clone(n.slots), annotated: n.annotated}
	for _, c := range n.Children {
		s.children = append(s.children, snapshot(c))
	}
	return s
}

// unchanged reports where the subtree of n differs from the snapshot s,
// or "" when it is the very same nodes holding the very same values.
func unchanged(s nodeSnap, n *Node) string {
	switch {
	case s.node != n:
		return fmt.Sprintf("node at %v replaced", s.rect)
	case s.rect != n.Rect || s.leaf != n.Leaf || !slices.Equal(s.entries, n.Entries):
		return fmt.Sprintf("node at %v rewritten", s.rect)
	case !slices.Equal(s.kw, n.kw) || !slices.Equal(s.slots, n.slots) || s.annotated != n.annotated:
		return fmt.Sprintf("node at %v re-annotated", s.rect)
	case len(s.children) != len(n.Children):
		return fmt.Sprintf("node at %v has %d children, had %d", s.rect, len(n.Children), len(s.children))
	}
	for i, c := range s.children {
		if d := unchanged(c, n.Children[i]); d != "" {
			return d
		}
	}
	return ""
}

// reachable returns the set of nodes in n's subtree.
func reachable(n *Node, into map[*Node]bool) map[*Node]bool {
	into[n] = true
	for _, c := range n.Children {
		reachable(c, into)
	}
	return into
}

// TestEditorAgainstModel drives seeded random insert / delete / keyword
// edit batches through the editor and checks, after every batch, (1) that
// the derived tree indexes exactly the model's objects with every
// structural and inverted-file invariant holding, (2) that edits of an
// absent entry report failure, and (3) persistence: the tree the batch
// started from is the very same nodes holding the very same values,
// inverted files included — the editor wrote no node a published root
// can reach.
func TestEditorAgainstModel(t *testing.T) {
	const vocab = 24
	for _, tc := range []struct {
		seed          int64
		fanout, start int
		pInsert       float64
	}{
		{seed: 1, fanout: 4, start: 0, pInsert: 0.6},   // grows from empty, many splits
		{seed: 2, fanout: 8, start: 300, pInsert: 0.2}, // shrinks: dropped nodes, root collapse
		{seed: 3, fanout: 32, start: 2000, pInsert: 0.45},
		{seed: 4, fanout: 4, start: 40, pInsert: 0.1}, // drains to the empty tree
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		ds := genDataset(rng, tc.start, vocab, 4)
		tr := Build(ds, tc.fanout)
		for batch := 0; batch < 60; batch++ {
			before, beforeTree := snapshot(tr.Root()), *tr
			ed := tr.Edit()
			objs := editBatch(t, rng, ed, ds.Objects, 16, vocab, tc.pInsert, true)
			if ed.Delete(geo.Point{X: -1, Y: -1}, 0) || ed.ReID(geo.Point{X: -1, Y: -1}, 0, 1) {
				t.Fatalf("seed %d: edit of an absent entry reported success", tc.seed)
			}
			ds = &dataset.Dataset{Name: ds.Name, Objects: objs, Vocab: ds.Vocab}
			next := ed.Tree(ds)
			checkBuilt(t, next, ds)
			if d := unchanged(before, tr.Root()); d != "" || *tr != beforeTree {
				t.Fatalf("seed %d batch %d: the edit wrote into the tree it started from: %s", tc.seed, batch, d)
			}
			old := reachable(tr.Root(), map[*Node]bool{})
			fresh := 0
			for n := range reachable(next.Root(), map[*Node]bool{}) {
				if !old[n] {
					fresh++
				}
			}
			if fresh == 0 || fresh > ed.Cloned() {
				t.Fatalf("seed %d batch %d: %d nodes not in the base, Cloned() = %d", tc.seed, batch, fresh, ed.Cloned())
			}
			tr = next
		}
		if tc.seed == 4 && tr.Len() != 0 {
			// Finish the drain so the empty-tree path is certainly taken.
			ed := tr.Edit()
			for i := len(ds.Objects) - 1; i >= 0; i-- {
				ed.Delete(ds.Objects[i].Loc, uint32(i))
			}
			ds = &dataset.Dataset{Name: ds.Name, Vocab: ds.Vocab}
			tr = ed.Tree(ds)
			checkBuilt(t, tr, ds)
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
	ds := genDataset(rng, 5000, 20, 3)
	tr := Build(ds, 16)
	ed := tr.Edit()
	o := dataset.Object{ID: 5000, Loc: geo.Point{X: 500, Y: 500}, Keywords: kwds.NewSet(1)}
	ed.Insert(Entry{P: o.Loc, ID: uint32(o.ID)})
	if got, h := ed.Cloned(), tr.Height(); got < h || got > 2*h+1 {
		t.Fatalf("one insert cloned %d nodes, want the %d-node path and at most %d split nodes", got, h, h+1)
	}
	next := ed.Tree(&dataset.Dataset{Name: ds.Name, Objects: append(slices.Clone(ds.Objects), o), Vocab: ds.Vocab})
	shared := 0
	for _, c := range next.Root().Children {
		if slices.Contains(tr.Root().Children, c) {
			shared++
		}
	}
	if shared < len(tr.Root().Children)-1 {
		t.Fatalf("only %d of %d root children shared after one insert", shared, len(tr.Root().Children))
	}
	if err := next.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReadersWhileEditing: readers walk a published tree — NN and the
// relevant stream — while an editor derives and annotates generation
// after generation from it. Under -race a write into any node the base
// shares, its inverted file included, is a reported race; without it,
// every answer must stay the one the base gave before the edits began.
func TestReadersWhileEditing(t *testing.T) {
	const vocab = 30
	rng := rand.New(rand.NewSource(12))
	ds := genDataset(rng, 2000, vocab, 4)
	base := Build(ds, 8)
	type probe struct {
		p  geo.Point
		kw kwds.ID
		qi *kwds.QueryIndex
	}
	probes := make([]probe, 32)
	for i := range probes {
		kw := kwds.ID(rng.Intn(vocab))
		probes[i] = probe{geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, kw,
			kwds.NewQueryIndex(kwds.NewSet(kw, kwds.ID(rng.Intn(vocab))))}
	}
	answer := func(pr probe) []hit {
		id, d, _ := base.NN(pr.p, pr.kw)
		out := []hit{{id, d}}
		it := base.NewRelevantNNIterator(pr.p, pr.qi)
		for i := 0; i < 50; i++ {
			o, d, ok := it.Next()
			if !ok {
				break
			}
			out = append(out, hit{o.ID, d})
		}
		return out
	}
	want := make([][]hit, len(probes))
	for i, pr := range probes {
		want[i] = answer(pr)
	}

	stop := make(chan struct{})
	errs := make(chan error, 2)
	var ready, done sync.WaitGroup
	for r := 0; r < 2; r++ {
		ready.Add(1)
		done.Add(1)
		go func(r int) {
			defer done.Done()
			for i := r; ; i++ {
				got := answer(probes[i%len(probes)])
				if i == r {
					ready.Done()
				}
				if !slices.Equal(got, want[i%len(probes)]) {
					errs <- fmt.Errorf("reader %d: probe %d answers %v while the next tree is derived, %v before", r, i%len(probes), got, want[i%len(probes)])
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(r)
	}
	ready.Wait()
	tr := base
	for b := 0; b < 30; b++ {
		ed := tr.Edit()
		objs := editBatch(t, rng, ed, tr.Dataset().Objects, 32, vocab, 0.4, false)
		tr = ed.Tree(&dataset.Dataset{Name: ds.Name, Objects: objs, Vocab: ds.Vocab})
	}
	close(stop)
	done.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, tr := range []*Tree{base, tr} {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
