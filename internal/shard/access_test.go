package shard

// The access-path contract of the shard data plane. EngineBackend answers
// Collect and NN from the inverted index, not from the IR-tree; these
// tests pin what that must mean: Collect is exactly the brute-force set
// {o : mask(o) ≠ 0 ∧ disk.ContainsPoint(o.Loc)} with brute-force masks
// (a scan of the shard's dataset is the reference), and NN is Tree.NN with
// a stated tie order. A backend holds no tree, so the NN check is handed a
// reference tree built here over the shard's dataset.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/invindex"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
)

// bruteMask is the Mask contract spelled out: bit i ⇔ o contains words[i].
func bruteMask(ds *dataset.Dataset, o *dataset.Object, words []string) kwds.Mask {
	var m kwds.Mask
	for i, w := range words {
		if id, ok := ds.Vocab.Lookup(w); ok && o.Keywords.Contains(id) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// accessWords draws n distinct query words: mostly words of ds (frequent
// and rare alike), every seventh one unknown to every shard.
func accessWords(rng *rand.Rand, ds *dataset.Dataset, n int) []string {
	perm := rng.Perm(ds.Vocab.Len())
	words := make([]string, n)
	for i := range words {
		if i%7 == 6 || i >= len(perm) {
			words[i] = fmt.Sprintf("no-such-word-%d", i)
			continue
		}
		words[i] = ds.Vocab.Word(kwds.ID(perm[i]))
	}
	return words
}

// checkCollect asserts the Collect contract of one backend for one call.
func checkCollect(t *testing.T, b *EngineBackend, sh Shard, q ShardQuery, radius float64) {
	t.Helper()
	got, err := b.Collect(context.Background(), q, radius)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if got.Gen != 0 {
		t.Fatalf("static backend reported gen %d", got.Gen)
	}
	disk := geo.Circle{C: q.Loc, R: radius}
	var want []Candidate
	for i := range sh.DS.Objects {
		o := &sh.DS.Objects[i]
		if m := bruteMask(sh.DS, o, q.Words); m != 0 && disk.ContainsPoint(o.Loc) {
			want = append(want, Candidate{GID: sh.GlobalIDs[i], Loc: o.Loc, Mask: m})
		}
	}
	if len(got.Objects) != len(want) {
		t.Fatalf("Collect returned %d objects, brute force %d", len(got.Objects), len(want))
	}
	masker := newWireMasker(q.Words)
	for i, c := range got.Objects {
		// want is in ascending id by construction, so this is the order check too.
		if c.GID != want[i].GID || c.Loc != want[i].Loc || c.Mask != want[i].Mask {
			t.Fatalf("Collect[%d] = {%d %v %b}, brute force {%d %v %b}",
				i, c.GID, c.Loc, c.Mask, want[i].GID, want[i].Loc, want[i].Mask)
		}
		if c.Words != nil {
			t.Fatalf("Collect[%d] carries keyword strings before Hydrate", i)
		}
		b.Hydrate(&c)
		if wire := masker.candidate(WireObject{ID: uint32(c.GID), X: c.Loc.X, Y: c.Loc.Y, Keywords: c.Words}); wire.Mask != c.Mask {
			t.Fatalf("object %d: shard-side mask %b, mask of its hydrated words %b", c.GID, c.Mask, wire.Mask)
		}
	}
}

func checkNN(t *testing.T, b *EngineBackend, tree *irtree.Tree, sh Shard, q ShardQuery) {
	t.Helper()
	got, err := b.NN(context.Background(), q)
	if err != nil {
		t.Fatalf("NN: %v", err)
	}
	if len(got.Hits) != len(q.Words) {
		t.Fatalf("NN returned %d hits for %d words", len(got.Hits), len(q.Words))
	}
	for i, w := range q.Words {
		h := got.Hits[i]
		kw, known := sh.DS.Vocab.Lookup(w)
		var treeD float64
		treeOK := false
		if known {
			_, treeD, treeOK = tree.NN(q.Loc, kw)
		}
		if h.Found != treeOK {
			t.Fatalf("word %q: NN found=%v, Tree.NN found=%v", w, h.Found, treeOK)
		}
		if !h.Found {
			continue
		}
		if h.Dist != treeD {
			t.Fatalf("word %q: NN dist %v, Tree.NN dist %v (must be bit-identical)", w, h.Dist, treeD)
		}
		// Lowest id among the objects at exactly that distance.
		first := -1
		for j := range sh.DS.Objects {
			o := &sh.DS.Objects[j]
			if o.Keywords.Contains(kw) && q.Loc.Dist(o.Loc) == h.Dist {
				first = j
				break
			}
		}
		if first < 0 || h.Cand.GID != sh.GlobalIDs[first] {
			t.Fatalf("word %q: NN object %d, want lowest-id object at dist %v (local %d)", w, h.Cand.GID, h.Dist, first)
		}
		o := &sh.DS.Objects[first]
		if h.Cand.Loc != o.Loc || h.Cand.Mask != bruteMask(sh.DS, o, q.Words) || h.Cand.Mask&(1<<uint(i)) == 0 {
			t.Fatalf("word %q: NN candidate {%v %b}, object has {%v %b}", w, h.Cand.Loc, h.Cand.Mask, o.Loc, bruteMask(sh.DS, o, q.Words))
		}
	}
}

// TestAccessPathContract runs both contracts over seeded Hotel-like and
// GN-like data, both partitioners and narrow-to-maximal queries.
func TestAccessPathContract(t *testing.T) {
	fixtures := []datagen.Config{
		{Name: "hotel-like", NumObjects: 1500, VocabSize: 120, AvgKeywords: 3.9, MaxKeywords: 12, Clusters: 12, Seed: 1701},
		{Name: "gn-like", NumObjects: 1500, VocabSize: 900, AvgKeywords: 9.8, MaxKeywords: 30, Clusters: 40, Seed: 1702},
	}
	for _, cfg := range fixtures {
		ds := datagen.Generate(cfg)
		for _, part := range []Partitioner{Grid(), Subtree()} {
			shards, err := part.Partition(ds, 4)
			if err != nil {
				t.Fatal(err)
			}
			backends := make([]*EngineBackend, len(shards))
			trees := make([]*irtree.Tree, len(shards))
			for i, sh := range shards {
				backends[i] = NewEngineBackend(sh.DS.Name, sh)
				trees[i] = irtree.Build(sh.DS, 0)
			}
			for _, size := range []int{1, 3, 9, kwds.MaxQueryKeywords} {
				t.Run(fmt.Sprintf("%s/%s/k%d", cfg.Name, part.Name(), size), func(t *testing.T) {
					rng := rand.New(rand.NewSource(cfg.Seed + int64(size)))
					for n := 0; n < 6; n++ {
						q := ShardQuery{
							Loc:   geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
							Words: accessWords(rng, ds, size),
						}
						for s, b := range backends {
							if shards[s].DS.Len() == 0 {
								continue
							}
							checkNN(t, b, trees[s], shards[s], q)
							for _, radius := range []float64{0, 40, 250, 2000} {
								checkCollect(t, b, shards[s], q, radius)
							}
						}
					}
				})
			}
		}
	}
}

// TestAccessPathEdges covers the rows a random table rarely hits.
func TestAccessPathEdges(t *testing.T) {
	ds := cornerDataset() // "rare" lives in the corner cluster at (50, 50) only
	shards, err := Grid().Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	holders := 0
	for s, sh := range shards {
		b := NewEngineBackend(sh.DS.Name, sh)
		tree := irtree.Build(sh.DS, 0)
		q := ShardQuery{Loc: pt(500, 500), Words: []string{"rare", "never-interned"}}
		checkNN(t, b, tree, sh, q)
		checkCollect(t, b, sh, q, 2000)
		nn, _ := b.NN(ctx, q)
		col, _ := b.Collect(ctx, q, 2000)
		if nn.Hits[1].Found {
			t.Fatalf("shard %d found an unknown word", s)
		}
		// The shards share one vocabulary, so every shard can look "rare"
		// up; only the one holding it may answer.
		if nn.Hits[0].Found != (len(col.Objects) > 0) {
			t.Fatalf("shard %d: NN found=%v but Collect returned %d objects", s, nn.Hits[0].Found, len(col.Objects))
		}
		if nn.Hits[0].Found {
			holders++
		}

		// Radius 0 on an object's own location returns the objects there;
		// radius exactly d(o, q) includes o (the disk is closed).
		o := sh.DS.Objects[0]
		alpha := ShardQuery{Loc: o.Loc, Words: []string{"alpha"}}
		checkCollect(t, b, sh, alpha, 0)
		at, _ := b.Collect(ctx, alpha, 0)
		if len(at.Objects) != 1 || at.Objects[0].GID != sh.GlobalIDs[0] {
			t.Fatalf("shard %d: radius 0 at object 0 returned %+v", s, at.Objects)
		}
		far := ShardQuery{Loc: pt(500, 500), Words: []string{"alpha"}}
		for i := range sh.DS.Objects {
			d := far.Loc.Dist(sh.DS.Objects[i].Loc)
			checkCollect(t, b, sh, far, d)
			on, _ := b.Collect(ctx, far, d)
			if !slices.ContainsFunc(on.Objects, func(c Candidate) bool { return c.GID == sh.GlobalIDs[i] }) {
				t.Fatalf("shard %d: radius exactly d(o%d, q) = %v excludes o%d", s, i, d, i)
			}
			checkCollect(t, b, sh, far, math.Nextafter(d, 0))
		}
	}
	if holders != 1 {
		t.Fatalf("%d shards hold \"rare\", fixture expects 1", holders)
	}

	// Exact distance ties resolve to the lowest id, whatever order the
	// IR-tree's heap would pop them in.
	tb := dataset.NewBuilder("ties")
	for _, p := range []geo.Point{pt(3, 0), pt(0, 1), pt(1, 0), pt(0, -1), pt(-1, 0)} {
		tb.Add(p, "tie")
	}
	tds := tb.Build()
	tied := WrapEngine("ties", tds, invindex.Build(tds))
	tq := ShardQuery{Words: []string{"tie"}}
	checkNN(t, tied, irtree.Build(tds, 0), Shard{DS: tds, GlobalIDs: []dataset.ObjectID{0, 1, 2, 3, 4}}, tq)
	if nn, _ := tied.NN(ctx, tq); nn.Hits[0].Cand.GID != 1 || nn.Hits[0].Dist != 1 {
		t.Fatalf("four-way tie at distance 1 resolved to object %d at %v, want object 1", nn.Hits[0].Cand.GID, nn.Hits[0].Dist)
	}

	// The empty shard answers with empty results.
	empty := NewEngineBackend("empty", Shard{DS: dataset.NewBuilder("empty").Build()})
	q := ShardQuery{Loc: pt(1, 1), Words: []string{"alpha", "beta"}}
	nn, err := empty.NN(ctx, q)
	if err != nil || len(nn.Hits) != 2 || nn.Hits[0].Found || nn.Hits[1].Found {
		t.Fatalf("empty shard NN = %+v, %v", nn, err)
	}
	if col, err := empty.Collect(ctx, q, 1e9); err != nil || len(col.Objects) != 0 {
		t.Fatalf("empty shard Collect = %+v, %v", col, err)
	}

	// One word more than a Mask has bits is a typed error, never a
	// truncated mask — on an empty shard too.
	wide := ShardQuery{Words: make([]string, kwds.MaxQueryKeywords+1)}
	for i := range wide.Words {
		wide.Words[i] = "alpha"
	}
	for _, b := range []*EngineBackend{empty, NewEngineBackend("s0", shards[0])} {
		if _, err := b.NN(ctx, wide); !errors.Is(err, core.ErrTooManyKeywords) {
			t.Fatalf("%s: 65-word NN err = %v, want ErrTooManyKeywords", b.Name(), err)
		}
		if _, err := b.Collect(ctx, wide, 10); !errors.Is(err, core.ErrTooManyKeywords) {
			t.Fatalf("%s: 65-word Collect err = %v, want ErrTooManyKeywords", b.Name(), err)
		}
	}
}
