package irtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

// scanDists returns the distances from p of the objects accepted by keep,
// ascending: the linear-scan oracle every walk is held to.
func scanDists(ds *dataset.Dataset, p geo.Point, keep func(*dataset.Object) bool) []float64 {
	var out []float64
	for i := range ds.Objects {
		if o := &ds.Objects[i]; keep(o) {
			out = append(out, p.Dist(o.Loc))
		}
	}
	slices.Sort(out)
	return out
}

// checkWalks holds every walk of tr from p — NN, NN2, the keyword and the
// relevant streams (the latter cut at limit), BooleanKNN — to a linear
// scan of the tree's dataset. Ties may come back in any order, so a walk
// must yield distinct objects, each meeting its filter at its own exact
// distance, with the scan's distances in ascending order.
func checkWalks(t testing.TB, tr *Tree, p geo.Point, query kwds.Set, limit float64) {
	t.Helper()
	ds := tr.Dataset()
	// stream drains next and checks what it yields; it returns the count.
	stream := func(name string, want []float64, next func() (*dataset.Object, float64, bool), ok func(*dataset.Object) bool) {
		t.Helper()
		seen := map[dataset.ObjectID]bool{}
		var got []float64
		for o, d, more := next(); more; o, d, more = next() {
			if seen[o.ID] || !ok(o) || d != p.Dist(o.Loc) {
				t.Fatalf("%s from %v: object %d at %v repeated, not matching, or misplaced", name, p, o.ID, d)
			}
			seen[o.ID] = true
			got = append(got, d)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s from %v yields distances %v, a scan gives %v", name, p, got, want)
		}
	}

	for _, kw := range query {
		has := func(o *dataset.Object) bool { return o.Keywords.Contains(kw) }
		want := scanDists(ds, p, has)
		id, d, ok := tr.NN(p, kw)
		id2, d1, d2, ok2 := tr.NN2(p, kw)
		if ok != (len(want) > 0) || ok2 != ok {
			t.Fatalf("NN/NN2(%v, %d) ok = %v/%v, %d objects hold it", p, kw, ok, ok2, len(want))
		}
		if ok {
			wantD2 := math.Inf(1)
			if len(want) > 1 {
				wantD2 = want[1]
			}
			if d != want[0] || id2 != id || d1 != d || d2 != wantD2 || !has(ds.Object(id)) || p.Dist(ds.Object(id).Loc) != d {
				t.Fatalf("NN/NN2(%v, %d) = %d at %v / %d at %v, %v; a scan gives %v, %v", p, kw, id, d, id2, d1, d2, want[0], wantD2)
			}
		}
		it := tr.NewKeywordNNIterator(p, kw)
		stream("KeywordNN", want, it.Next, has)
	}

	qi := kwds.NewQueryIndex(query)
	it := tr.NewRelevantNNIterator(p, qi)
	it.Limit(limit)
	relevant := func(o *dataset.Object) bool { return qi.MaskOf(o.Keywords) != 0 }
	want := scanDists(ds, p, func(o *dataset.Object) bool { return relevant(o) && p.Dist(o.Loc) < limit })
	stream("relevant walk", want, it.Next, func(o *dataset.Object) bool {
		if m := qi.MaskOf(o.Keywords); it.Mask() != m {
			t.Fatalf("relevant walk from %v: object %d has mask %b, its keywords give %b", p, o.ID, it.Mask(), m)
		}
		return relevant(o)
	})

	for _, sub := range []kwds.Set{query, query[:min(2, len(query))], nil} {
		covers := func(o *dataset.Object) bool { return o.Keywords.Covers(sub) }
		want := scanDists(ds, p, covers)
		const k = 5
		got := tr.BooleanKNN(p, sub, k)
		var gotD []float64
		seen := map[dataset.ObjectID]bool{}
		for _, id := range got {
			if o := ds.Object(id); covers(o) && !seen[id] {
				gotD = append(gotD, p.Dist(o.Loc))
			}
			seen[id] = true
		}
		if want = want[:min(k, len(want))]; !slices.Equal(gotD, want) || len(gotD) != len(got) {
			t.Fatalf("BooleanKNN(%v, %v) = %v at %v, a scan gives %v", p, sub, got, gotD, want)
		}
	}
}

// genClustered builds n objects in a few tight clusters, half of them on
// shared points, so distance ties and overlapping nodes are common.
func genClustered(rng *rand.Rand, n, vocab int) *dataset.Dataset {
	b := dataset.NewBuilder("clustered")
	words := make([]kwds.ID, vocab)
	for i := range words {
		words[i] = b.Vocab().Intern(word(i))
	}
	centers := make([]geo.Point, 6)
	for i := range centers {
		centers[i] = geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
	}
	var last geo.Point
	for i := 0; i < n; i++ {
		p := last
		if i == 0 || rng.Intn(2) == 0 {
			c := centers[rng.Intn(len(centers))]
			p = geo.Point{X: c.X + math.Round(rng.NormFloat64()*20), Y: c.Y + math.Round(rng.NormFloat64()*20)}
		}
		last = p
		ids := make([]kwds.ID, 1+rng.Intn(4))
		for j := range ids {
			ids[j] = words[int(float64(vocab)*rng.Float64()*rng.Float64())] // skewed toward low ids
		}
		b.AddIDs(p, kwds.NewSet(ids...))
	}
	return b.Build()
}

// fullNode reports whether some node of the tree holds 64 slots, so slot
// bit 63 is in use.
func fullNode(n *Node) bool {
	if len(n.Entries) == MaxFanout || len(n.Children) == MaxFanout {
		return true
	}
	return slices.ContainsFunc(n.Children, fullNode)
}

// TestWalksMatchScan: at every fanout up to the 64-slot cap, over uniform
// and clustered data, each walk agrees with a linear scan and the relevant
// walk's masks equal the objects' own.
func TestWalksMatchScan(t *testing.T) {
	const vocab = 50
	for _, fanout := range []int{4, 8, 32, 64} {
		for _, data := range []struct {
			name string
			gen  func(*rand.Rand) *dataset.Dataset
		}{
			{"random", func(rng *rand.Rand) *dataset.Dataset { return genDataset(rng, 3000, vocab, 4) }},
			{"clustered", func(rng *rand.Rand) *dataset.Dataset { return genClustered(rng, 3000, vocab) }},
		} {
			rng := rand.New(rand.NewSource(int64(fanout)))
			tr := Build(data.gen(rng), fanout)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("fanout %d, %s: %v", fanout, data.name, err)
			}
			if fanout == MaxFanout && !fullNode(tr.Root()) {
				t.Fatalf("%s: no node of a fanout-64 tree uses slot 63", data.name)
			}
			for q := 0; q < 40; q++ {
				p := geo.Point{X: rng.Float64()*1200 - 100, Y: rng.Float64()*1200 - 100}
				ids := make([]kwds.ID, 1+rng.Intn(6))
				for i := range ids {
					ids[i] = kwds.ID(rng.Intn(vocab + 5)) // a few words no object holds
				}
				limit := math.Inf(1)
				if q%2 == 1 {
					limit = 20 + rng.Float64()*400
				}
				checkWalks(t, tr, p, kwds.NewSet(ids...), limit)
			}
		}
	}
}

// FuzzIRTreeWalks builds a tree over objects decoded from the input, on an
// integer grid so ties abound, derives one generation from it by inserts
// and deletes, and holds every walk of both trees to a linear scan.
//
// Encoding: fanout byte, vocabulary byte, object count byte, then three
// bytes per object (x, y, keyword bits folded into a few words), then the
// edit: per byte, an insert of a new object or a delete of one by index.
func FuzzIRTreeWalks(f *testing.F) {
	f.Add([]byte{60, 9, 80, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 200, 201, 3, 4, 5})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{255, 79, 199, 0, 0, 1, 0, 0, 2, 0, 0, 3, 255, 255, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		fanout := 4 + int(next())%61
		vocab := 1 + int(next())%80
		n := int(next()) % 201
		obj := func() (geo.Point, kwds.Set) {
			x, y, w := next(), next(), next()
			ids := []kwds.ID{kwds.ID(int(w) % vocab)}
			for i := 1; i < 8; i++ {
				if w&(1<<i) != 0 {
					ids = append(ids, kwds.ID((int(w)*i+i)%vocab))
				}
			}
			return geo.Point{X: float64(x), Y: float64(y)}, kwds.NewSet(ids...)
		}
		b := dataset.NewBuilder("fuzz")
		for i := 0; i < vocab; i++ {
			b.Vocab().Intern(word(i))
		}
		for i := 0; i < n; i++ {
			b.AddIDs(obj())
		}
		ds := b.Build()
		tr := Build(ds, fanout)

		// The edit keeps the live index's slot contract: a delete moves
		// the last object into the freed slot.
		objs := slices.Clone(ds.Objects)
		ed := tr.Edit()
		for len(data) > 0 {
			if op := next(); op&1 == 0 || len(objs) == 0 {
				p, kw := obj()
				o := dataset.Object{ID: dataset.ObjectID(len(objs)), Loc: p, Keywords: kw}
				objs = append(objs, o)
				ed.Insert(Entry{P: o.Loc, ID: uint32(o.ID)})
			} else {
				id, last := int(op>>1)%len(objs), len(objs)-1
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
			}
		}
		derived := ed.Tree(&dataset.Dataset{Name: ds.Name, Objects: objs, Vocab: ds.Vocab})

		for _, tr := range []*Tree{tr, derived} {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 4; q++ {
				p := geo.Point{X: float64(q * 70), Y: float64(255 - q*60)}
				query := kwds.NewSet(kwds.ID(q), kwds.ID(q*7%vocab), kwds.ID(q*13%(vocab+2)))
				limit := math.Inf(1)
				if q%2 == 1 {
					limit = 60.5 * float64(q) // off the grid's distances by far more than an ulp
				}
				checkWalks(t, tr, p, query, limit)
			}
		}
	})
}
