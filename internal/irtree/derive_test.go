package irtree

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

// unionAllRef is the flatten-sort-dedup unionAll the mark bitmap replaced,
// kept as the reference its output is compared with slice for slice.
func unionAllRef(parts []kwds.Set) kwds.Set {
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return append(kwds.Set(nil), parts[0]...)
	}
	var flat []kwds.ID
	for _, p := range parts {
		flat = append(flat, p...)
	}
	return kwds.NewSet(flat...)
}

func TestUnionAllMatchesSortDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	randSet := func(n, universe int) kwds.Set {
		ids := make([]kwds.ID, n)
		for i := range ids {
			ids[i] = kwds.ID(rng.Intn(universe))
		}
		return kwds.NewSet(ids...)
	}
	cases := [][]kwds.Set{
		nil,
		{},
		{nil},
		{kwds.Set{}},
		{nil, nil, nil},
		{kwds.NewSet(7)},
		{kwds.NewSet(0)},
		{kwds.NewSet(63), kwds.NewSet(64), kwds.NewSet(0)},
		{kwds.NewSet(5, 9), nil, kwds.NewSet(5, 9), kwds.NewSet(9, 5)}, // duplicate-heavy
		{kwds.NewSet(100000), kwds.NewSet(1)},                          // a wide id range
	}
	for i := 0; i < 300; i++ {
		parts := make([]kwds.Set, rng.Intn(40))
		universe := []int{3, 70, 700, 20000}[rng.Intn(4)]
		for j := range parts {
			parts[j] = randSet(rng.Intn(12), universe)
		}
		cases = append(cases, parts)
	}
	var u unioner // one scratch across every case: marks must come back clear
	for i, parts := range cases {
		got, slots := u.unionAll(parts)
		if want := unionAllRef(parts); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: unionAll(%v) = %#v, sort-dedup gives %#v", i, parts, got, want)
		}
		if len(slots) != len(got) {
			t.Fatalf("case %d: %d slot masks for %d keywords", i, len(slots), len(got))
		}
		for k, kw := range got {
			var want uint64
			for j, p := range parts {
				if p.Contains(kw) {
					want |= 1 << j
				}
			}
			if slots[k] != want {
				t.Fatalf("case %d: keyword %d in slots %#x, its parts hold it in %#x", i, kw, slots[k], want)
			}
		}
	}
}

// edited derives a tree from Build(ds0) by random insert / delete / edit
// batches under the live index's slot contract (a delete moves the last
// object into the freed slot) and returns it with the dataset it indexes.
func edited(t *testing.T, rng *rand.Rand, n, vocab, fanout, batches int) (*Tree, *dataset.Dataset) {
	t.Helper()
	ds := genDataset(rng, n, vocab, 4)
	tr := Build(ds, fanout)
	for b := 0; b < batches; b++ {
		ed := tr.Edit()
		objs := editBatch(t, rng, ed, ds.Objects, 16, vocab, 0.4, false) // no duplicate points: ties would order by tree shape
		ds = &dataset.Dataset{Name: ds.Name, Objects: objs, Vocab: ds.Vocab}
		old := tr
		tr = ed.Tree(ds)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if err := old.CheckInvariants(); err != nil {
			t.Fatalf("batch %d: deriving the next tree broke the one it came from: %v", b, err)
		}
	}
	return tr, ds
}

// TestDeriveSharesAnnotations: a one-object keyword edit creates exactly
// the nodes of one root-to-leaf path, and those are the only nodes of the
// derived tree the base does not share — every other node, inverted file
// and all, is the base's own.
func TestDeriveSharesAnnotations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := genDataset(rng, 4000, 60, 4)
	tr := Build(ds, 16)
	ed := tr.Edit()
	objs := slices.Clone(ds.Objects)
	objs[7].Keywords = kwds.NewSet(1, 2, 3)
	if !ed.ReID(objs[7].Loc, 7, 7) {
		t.Fatal("object 7 not found")
	}
	next := ed.Tree(&dataset.Dataset{Name: ds.Name, Objects: objs, Vocab: ds.Vocab})
	base := reachable(tr.Root(), map[*Node]bool{})
	fresh := 0
	for n := range reachable(next.Root(), map[*Node]bool{}) {
		if !base[n] {
			fresh++
		}
	}
	if h := tr.Height(); fresh != h || ed.Cloned() != h {
		t.Fatalf("a keyword edit created %d nodes (%d not in the base), want the %d of one root-to-leaf path", ed.Cloned(), fresh, h)
	}
	if err := next.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

type hit struct {
	id dataset.ObjectID
	d  float64
}

// TestEditedTreeAnswersLikeABuild: every read primitive returns, on a tree
// reached by path copying, exactly what it returns on a tree bulk-loaded
// over the same dataset — same ids, same distances, bit for bit — through
// stretches of edits that split nodes, drop them and collapse the root.
func TestEditedTreeAnswersLikeABuild(t *testing.T) {
	for _, tc := range []struct {
		seed               int64
		n, fanout, batches int
	}{
		{seed: 1, n: 1500, fanout: 32, batches: 12},
		{seed: 2, n: 40, fanout: 4, batches: 40}, // the tree is rebuilt several times over
		{seed: 3, n: 600, fanout: 8, batches: 25},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		const vocab = 30
		live, ds := edited(t, rng, tc.n, vocab, tc.fanout, tc.batches)
		ref := Build(ds, tc.fanout)
		for q := 0; q < 150; q++ {
			p := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			kw := kwds.ID(rng.Intn(vocab))
			query := kwds.NewSet(kw, kwds.ID(rng.Intn(vocab)), kwds.ID(rng.Intn(vocab)))
			qi := kwds.NewQueryIndex(query)

			lid, ld, lok := live.NN(p, kw)
			rid, rd, rok := ref.NN(p, kw)
			if lid != rid || ld != rd || lok != rok {
				t.Fatalf("seed %d: NN(%v, %d) = %d/%v/%v, a build gives %d/%v/%v", tc.seed, p, kw, lid, ld, lok, rid, rd, rok)
			}
			lid, ld, ld2, lok := live.NN2(p, kw)
			rid, rd, rd2, rok := ref.NN2(p, kw)
			if lid != rid || ld != rd || ld2 != rd2 || lok != rok {
				t.Fatalf("seed %d: NN2(%v, %d) = %d/%v/%v, a build gives %d/%v/%v", tc.seed, p, kw, lid, ld, ld2, rid, rd, rd2)
			}

			for _, limit := range []float64{math.Inf(1), 50 + rng.Float64()*300} {
				drain := func(tr *Tree) (out []hit) {
					it := tr.NewRelevantNNIterator(p, qi)
					it.Limit(limit)
					for o, d, ok := it.Next(); ok; o, d, ok = it.Next() {
						out = append(out, hit{o.ID, d})
					}
					return out
				}
				if l, r := drain(live), drain(ref); !slices.Equal(l, r) {
					t.Fatalf("seed %d: relevant stream (limit %v) diverges: %v vs %v", tc.seed, limit, l, r)
				}
			}

			kwDrain := func(tr *Tree) (out []hit) {
				it := tr.NewKeywordNNIterator(p, kw)
				for o, d, ok := it.Next(); ok; o, d, ok = it.Next() {
					out = append(out, hit{o.ID, d})
				}
				return out
			}
			if l, r := kwDrain(live), kwDrain(ref); !slices.Equal(l, r) {
				t.Fatalf("seed %d: keyword stream for %d diverges: %v vs %v", tc.seed, kw, l, r)
			}
		}
	}
}
