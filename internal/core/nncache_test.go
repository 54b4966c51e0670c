package core

import (
	"math"
	"math/rand"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

// bruteNN2 computes the keyword NN and second-NN distances exhaustively.
func bruteNN2(e *Engine, p geo.Point, kw kwds.ID) (id dataset.ObjectID, d1, d2 float64, ok bool) {
	d1, d2 = math.Inf(1), math.Inf(1)
	for i := 0; i < e.DS.Len(); i++ {
		o := e.DS.Object(dataset.ObjectID(i))
		if !o.Keywords.Contains(kw) {
			continue
		}
		d := p.Dist(o.Loc)
		switch {
		case d < d1:
			d2 = d1
			id, d1, ok = o.ID, d, true
		case d < d2:
			d2 = d
		}
	}
	return id, d1, d2, ok
}

// TestNN2MatchesBrute pins the contract lookupNN relies on: NN2's first
// result is exactly Tree.NN's, and its second distance is the true
// second-nearest distance (or +Inf for a single-occurrence keyword,
// absent for a missing one).
func TestNN2MatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	e := genEngine(rng, 300, 8, 3)
	for trial := 0; trial < 300; trial++ {
		p := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		kw := kwds.ID(rng.Intn(10)) // ids 8, 9 appear in no object
		id, d1, d2, ok := e.Tree.NN2(p, kw)
		wantID, wantD1, wantD2, wantOK := bruteNN2(e, p, kw)
		if ok != wantOK {
			t.Fatalf("trial %d: NN2 ok=%v, brute ok=%v", trial, ok, wantOK)
		}
		if !ok {
			continue
		}
		if id != wantID || d1 != wantD1 {
			t.Fatalf("trial %d: NN2 = (%d, %v), brute = (%d, %v)", trial, id, d1, wantID, wantD1)
		}
		if d2 != wantD2 {
			t.Fatalf("trial %d: NN2 second distance %v, brute %v", trial, d2, wantD2)
		}
		nid, nd, nok := e.Tree.NN(p, kw)
		if nid != id || nd != d1 || nok != ok {
			t.Fatalf("trial %d: NN2 first result (%d, %v) != NN (%d, %v)", trial, id, d1, nid, nd)
		}
	}
}

// TestNNCacheLookupMatchesTree drives lookupNN with clustered probe
// points — exact repeats and small jitters, the patterns that validate
// against cached radii — and checks every answer against a bare tree
// walk, bit for bit.
func TestNNCacheLookupMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	e := genEngine(rng, 400, 8, 3)
	if e.EnableNNCache(512) == nil {
		t.Fatal("EnableNNCache returned nil for positive capacity")
	}
	run := &search{Engine: e, src: e.treeSource()}

	hots := make([]geo.Point, 5)
	for i := range hots {
		hots[i] = geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	for trial := 0; trial < 2000; trial++ {
		p := hots[rng.Intn(len(hots))]
		switch trial % 3 {
		case 1: // tiny jitter: usually inside the validity radius
			p = geo.Point{X: p.X + rng.Float64()*1e-6, Y: p.Y + rng.Float64()*1e-6}
		case 2: // larger jitter: often outside it
			p = geo.Point{X: p.X + rng.Float64()*0.5, Y: p.Y + rng.Float64()*0.5}
		}
		kw := kwds.ID(rng.Intn(10))
		id, d, ok := run.lookupNN(p, kw)
		wantID, wantD, wantOK := e.Tree.NN(p, kw)
		if id != wantID || d != wantD || ok != wantOK {
			t.Fatalf("trial %d: lookupNN = (%d, %v, %v), Tree.NN = (%d, %v, %v)",
				trial, id, d, ok, wantID, wantD, wantOK)
		}
	}
	if e.NNCache.Hits() == 0 {
		t.Fatal("clustered probes produced no cache hits")
	}
	if e.NNCache.Misses() == 0 {
		t.Fatal("probe mix produced no misses (fixture too easy to mean anything)")
	}
}

// TestNNCacheNegativeEntry: a keyword absent from the dataset caches a
// negative entry that answers any later probe reaching it — entries are
// keyed by grid cell, so "any" means any probe point in the same cell
// (for negatives no distance validation applies within it).
func TestNNCacheNegativeEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	e := genEngine(rng, 100, 5, 2)
	e.EnableNNCache(64)
	run := &search{Engine: e, src: e.treeSource()}
	const missing = kwds.ID(99)
	if _, _, ok := run.lookupNN(geo.Point{X: 1, Y: 1}, missing); ok {
		t.Fatal("missing keyword reported present")
	}
	h0 := e.NNCache.Hits()
	// A different probe point in the same grid cell (cells are ~0.4 wide
	// on the 100×100 fixture): no radius check can pass here — only the
	// negative entry, valid everywhere, can answer.
	if _, _, ok := run.lookupNN(geo.Point{X: 1.01, Y: 1.02}, missing); ok {
		t.Fatal("missing keyword reported present")
	}
	if e.NNCache.Hits() != h0+1 {
		t.Fatalf("negative entry did not hit: hits %d -> %d", h0, e.NNCache.Hits())
	}
}

// TestNNCacheEviction: a capacity far below the working set evicts and
// never exceeds its bound.
func TestNNCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	e := genEngine(rng, 300, 8, 3)
	const capacity = 16
	e.EnableNNCache(capacity)
	run := &search{Engine: e, src: e.treeSource()}
	for trial := 0; trial < 500; trial++ {
		p := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		run.lookupNN(p, kwds.ID(rng.Intn(8)))
	}
	if e.NNCache.Evictions() == 0 {
		t.Fatal("full cache never evicted")
	}
	if n := e.NNCache.Len(); n > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", n, capacity)
	}
}

// TestNNCacheHitNoAlloc pins the hot-path contract: answering from the
// cache allocates nothing (the intrusive LRU exists for this).
func TestNNCacheHitNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	e := genEngine(rng, 200, 6, 2)
	e.EnableNNCache(256)
	run := &search{Engine: e, src: e.treeSource()}
	p := geo.Point{X: 42, Y: 17}
	run.lookupNN(p, 0) // populate
	got := testing.AllocsPerRun(100, func() {
		run.lookupNN(p, 0)
	})
	if got != 0 {
		t.Fatalf("cache hit allocates %.1f/op, want 0", got)
	}
}

// TestEnableNNCacheDisabled: non-positive capacity leaves the engine
// uncached.
func TestEnableNNCacheDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	e := genEngine(rng, 50, 5, 2)
	e.EnableNNCache(128)
	if c := e.EnableNNCache(0); c != nil || e.NNCache != nil {
		t.Fatal("EnableNNCache(0) should clear the cache")
	}
}
