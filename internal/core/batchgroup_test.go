package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

// skewedBatch generates a production-shaped batch: most queries cluster
// around a few hot locations (zipfian popularity) with small location
// jitter and hot keyword combinations, plus a tail of unrelated queries.
func skewedBatch(rng *rand.Rand, n, vocab int) []Query {
	type hot struct {
		loc geo.Point
		kw  kwds.Set
	}
	hots := make([]hot, 4)
	for i := range hots {
		hots[i] = hot{
			loc: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
			kw:  randQuery(rng, vocab, 2+rng.Intn(2)).Keywords,
		}
	}
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(hots)-1))
	qs := make([]Query, n)
	for i := range qs {
		if i%5 == 4 { // unrelated tail
			qs[i] = randQuery(rng, vocab, 1+rng.Intn(3))
			continue
		}
		h := hots[zipf.Uint64()]
		kw := h.kw
		if i%7 == 3 { // similar-but-not-identical keyword sets
			kw = kw.Union(kwds.NewSet(kwds.ID(rng.Intn(vocab))))
		}
		qs[i] = Query{
			Loc:      geo.Point{X: h.loc.X + rng.Float64()*0.2, Y: h.loc.Y + rng.Float64()*0.2},
			Keywords: kw,
		}
	}
	return qs
}

// requireGrouping fails unless the batch actually forms a multi-member
// cluster — otherwise the grouped differential tests would vacuously pass
// through the singleton path.
func requireGrouping(t *testing.T, e *Engine, queries []Query) {
	t.Helper()
	for _, cl := range e.groupBatch(queries) {
		if len(cl.idxs) > 1 {
			return
		}
	}
	t.Fatal("fixture batch produced no multi-member cluster")
}

// compareBatchItems asserts bit-identical grouped vs independent results:
// same error presence, exactly equal cost, deeply equal canonical set.
func compareBatchItems(t *testing.T, label string, got, want []BatchItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("%s item %d: err %v vs %v", label, i, got[i].Err, want[i].Err)
		}
		if got[i].Err != nil {
			continue
		}
		if got[i].Result.Cost != want[i].Result.Cost {
			t.Fatalf("%s item %d: cost %v vs %v (must be bit-identical)",
				label, i, got[i].Result.Cost, want[i].Result.Cost)
		}
		if !reflect.DeepEqual(got[i].Result.Set, want[i].Result.Set) {
			t.Fatalf("%s item %d: set %v vs %v", label, i, got[i].Result.Set, want[i].Result.Set)
		}
	}
}

// TestSolveBatchGroupedMatchesIndependent is the grouped differential:
// for every cost function and both owner-driven methods, across worker
// counts, a grouped batch returns bit-identical (cost, canonical set)
// results to an independent per-query run. This is the theorem the
// NN-share and warm-start machinery must uphold (batchgroup.go;
// DESIGN.md §15).
func TestSolveBatchGroupedMatchesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	e := genEngine(rng, 400, 10, 3)
	e.Parallelism = 1
	queries := skewedBatch(rng, 32, 10)
	requireGrouping(t, e, queries)

	costs := []CostKind{MaxSum, Dia, Sum, MinMax, SumMax}
	methods := []Method{OwnerExact, OwnerAppro}
	for _, cost := range costs {
		for _, method := range methods {
			ref := make([]BatchItem, len(queries))
			for i, q := range queries {
				r, err := e.Solve(q, cost, method)
				ref[i] = BatchItem{Result: r, Err: err}
			}
			for _, workers := range []int{1, 3, 8} {
				label := cost.String() + "/" + method.String() + "/w" + string(rune('0'+workers))
				compareBatchItems(t, label, e.SolveBatch(queries, cost, method, workers), ref)
			}
		}
	}
}

// TestSolveBatchGroupedMatchesParallel: the grouped batch composes with
// intra-query parallelism — warm bounds cap the workers' pruning bound and
// worker searches drop the cluster share — without changing answers.
func TestSolveBatchGroupedMatchesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	e := genEngine(rng, 400, 10, 3)
	e.Parallelism = 1
	queries := skewedBatch(rng, 24, 10)
	requireGrouping(t, e, queries)

	for _, cost := range []CostKind{MaxSum, Dia} {
		ref := make([]BatchItem, len(queries))
		for i, q := range queries {
			r, err := e.Solve(q, cost, OwnerExact)
			ref[i] = BatchItem{Result: r, Err: err}
		}
		par := *e
		par.Parallelism = 2
		compareBatchItems(t, cost.String()+"/par2",
			par.SolveBatch(queries, cost, OwnerExact, 2), ref)
	}
}

// TestSolveBatchWarmStartsApplied: a hot cluster of near-identical
// queries chains warm starts (observable through the metrics sink), and
// the warm-started answers still match the cold independent run.
func TestSolveBatchWarmStartsApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	e := genEngine(rng, 400, 10, 3)
	e.Parallelism = 1
	e.Metrics = NewEngineMetrics(nil)
	queries := skewedBatch(rng, 32, 10)
	requireGrouping(t, e, queries)

	ref := make([]BatchItem, len(queries))
	for i, q := range queries {
		r, err := e.Solve(q, MaxSum, OwnerExact)
		ref[i] = BatchItem{Result: r, Err: err}
	}
	warm0 := e.Metrics.BatchWarmStarts()
	compareBatchItems(t, "warm", e.SolveBatch(queries, MaxSum, OwnerExact, 2), ref)
	if e.Metrics.BatchWarmStarts() == warm0 {
		t.Fatal("hot clusters applied no warm starts")
	}
}

// TestSolveBatchNNCacheOnOffIdentical: the engine-level NN cache — with a
// deliberately tiny capacity so evictions churn mid-run — never changes
// any answer, batched or single, across cost functions.
func TestSolveBatchNNCacheOnOffIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	e := genEngine(rng, 400, 10, 3)
	e.Parallelism = 1
	queries := skewedBatch(rng, 32, 10)

	cached := *e
	cached.EnableNNCache(16) // one entry per shard: constant eviction churn

	for _, cost := range []CostKind{MaxSum, Dia, Sum, MinMax, SumMax} {
		for _, method := range []Method{OwnerExact, OwnerAppro} {
			ref := make([]BatchItem, len(queries))
			for i, q := range queries {
				r, err := e.Solve(q, cost, method)
				ref[i] = BatchItem{Result: r, Err: err}
			}
			label := cost.String() + "/" + method.String()
			got := make([]BatchItem, len(queries))
			for i, q := range queries {
				r, err := cached.Solve(q, cost, method)
				got[i] = BatchItem{Result: r, Err: err}
			}
			compareBatchItems(t, label+"/single", got, ref)
			compareBatchItems(t, label+"/batch", cached.SolveBatch(queries, cost, method, 3), ref)
		}
	}
	if cached.NNCache.Hits() == 0 {
		t.Fatal("skewed workload produced no cache hits")
	}
	if cached.NNCache.Evictions() == 0 {
		t.Fatal("tiny cache never evicted (capacity too generous to stress validity)")
	}
}

// TestGroupBatchDeterministicPartition: grouping is a deterministic
// partition — identical across runs, every index exactly once, members
// ascending.
func TestGroupBatchDeterministicPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	e := genEngine(rng, 200, 10, 3)
	queries := skewedBatch(rng, 50, 10)

	a := e.groupBatch(queries)
	b := e.groupBatch(queries)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("groupBatch is not deterministic")
	}
	seen := make([]bool, len(queries))
	for _, cl := range a {
		for j, i := range cl.idxs {
			if seen[i] {
				t.Fatalf("query %d appears in two clusters", i)
			}
			seen[i] = true
			if j > 0 && cl.idxs[j-1] >= i {
				t.Fatalf("cluster members not ascending: %v", cl.idxs)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("query %d missing from the partition", i)
		}
	}
}

// TestSolveBatchPreCancelled: a batch whose context is already done runs
// nothing — the feeder and the per-member polls stop all work — and every
// item carries the context error.
func TestSolveBatchPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	e := genEngine(rng, 200, 8, 3)
	e.Metrics = NewEngineMetrics(nil)
	queries := skewedBatch(rng, 20, 8)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := e.SolveBatchCtx(ctx, queries, MaxSum, OwnerExact, 2)
	for i := range out {
		if !errors.Is(out[i].Err, context.Canceled) {
			t.Fatalf("item %d err = %v, want Canceled", i, out[i].Err)
		}
		if out[i].Result.Set != nil {
			t.Fatalf("item %d ran anyway", i)
		}
	}
	if n := e.Metrics.QueriesTotal(); n != 0 {
		t.Fatalf("pre-cancelled batch recorded %d solves, want 0", n)
	}
}

// TestSolveBatchGroupedInfeasibleMember: an infeasible query inside a hot
// cluster fails alone; its cluster mates still answer, identically to an
// independent run.
func TestSolveBatchGroupedInfeasibleMember(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	e := genEngine(rng, 300, 10, 3)
	e.Parallelism = 1
	queries := skewedBatch(rng, 20, 10)
	// Poison one hot-cluster member with an uncoverable keyword while
	// keeping it Jaccard-similar to its mates: add the impossible keyword
	// to a copy of a hot query's set.
	queries[5].Keywords = queries[5].Keywords.Union(kwds.NewSet(999))
	requireGrouping(t, e, queries)

	ref := make([]BatchItem, len(queries))
	for i, q := range queries {
		r, err := e.Solve(q, MaxSum, OwnerExact)
		ref[i] = BatchItem{Result: r, Err: err}
	}
	if !errors.Is(ref[5].Err, ErrInfeasible) {
		t.Fatal("fixture: poisoned query should be infeasible")
	}
	compareBatchItems(t, "infeasible", e.SolveBatch(queries, MaxSum, OwnerExact, 1), ref)
}

// tieFixture builds a dataset made of exact distance ties — 150 sites on
// the 5-unit grid, each hosting 2–4 co-located objects with 1–2 of 8
// keywords — and a six-member cluster at one cell centre (equidistant from
// its four corner sites, and from every mirror pair beyond them) whose
// members carry one base keyword set and the same set one keyword wider.
func tieFixture(rng *rand.Rand) (*Engine, []Query) {
	const vocab = 8
	b := dataset.NewBuilder("ties")
	ids := make([]kwds.ID, vocab)
	for i := range ids {
		ids[i] = b.Vocab().Intern(kwName(i))
	}
	for _, site := range rng.Perm(21 * 21)[:150] {
		loc := geo.Point{X: float64(site%21) * 5, Y: float64(site/21) * 5}
		for n := 2 + rng.Intn(3); n > 0; n-- {
			set := kwds.NewSet(ids[rng.Intn(vocab)])
			if rng.Intn(2) == 0 {
				set = set.Union(kwds.NewSet(ids[rng.Intn(vocab)]))
			}
			b.AddIDs(loc, set)
		}
	}
	e := NewEngine(b.Build(), 8)

	loc := geo.Point{X: float64(rng.Intn(20))*5 + 2.5, Y: float64(rng.Intn(20))*5 + 2.5}
	perm := rng.Perm(vocab)
	base := kwds.NewSet(ids[perm[0]], ids[perm[1]], ids[perm[2]])
	wide := base.Union(kwds.NewSet(ids[perm[3]]))
	queries := make([]Query, 6)
	for i := range queries {
		queries[i] = Query{Loc: loc, Keywords: base}
		if i == 2 || i == 4 {
			queries[i].Keywords = wide
		}
	}
	return e, queries
}

// TestSolveBatchTiesMatchIndependent: on data where candidate owners tie
// exactly in distance — co-located objects, mirror-image sites — every
// member of a grouped cluster still returns the bit-identical cost AND
// canonical set of an independent Solve, serial and parallel. Every member
// draws its owners from its own irtree.RelevantNNIterator, so there is one
// tie order in the engine, and a warm bound never limits that iterator.
func TestSolveBatchTiesMatchIndependent(t *testing.T) {
	costMiss, setMiss, members := 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		e, queries := tieFixture(rand.New(rand.NewSource(1600 + seed)))
		e.Parallelism = 1
		if cls := e.groupBatch(queries); len(cls) != 1 {
			t.Fatalf("seed %d: fixture formed %d clusters, want one six-member cluster", seed, len(cls))
		}
		for _, cost := range []CostKind{MaxSum, Dia} {
			ref := make([]BatchItem, len(queries))
			for i, q := range queries {
				r, err := e.Solve(q, cost, OwnerExact)
				ref[i] = BatchItem{Result: r, Err: err}
			}
			for _, par := range []int{1, 2} {
				for _, workers := range []int{1, 3} {
					eng := *e
					eng.Parallelism = par
					got := eng.SolveBatch(queries, cost, OwnerExact, workers)
					for i := range got {
						members++
						if (got[i].Err == nil) != (ref[i].Err == nil) {
							t.Fatalf("seed %d %v par%d w%d member %d: err %v vs %v",
								seed, cost, par, workers, i, got[i].Err, ref[i].Err)
						}
						bad := false
						if got[i].Result.Cost != ref[i].Result.Cost {
							costMiss, bad = costMiss+1, true
						}
						if !reflect.DeepEqual(got[i].Result.Set, ref[i].Result.Set) {
							setMiss, bad = setMiss+1, true
						}
						if bad && costMiss+setMiss <= 5 {
							t.Errorf("seed %d %v par%d w%d member %d: grouped (%v, %v) vs independent (%v, %v)",
								seed, cost, par, workers, i, got[i].Result.Cost, got[i].Result.Set,
								ref[i].Result.Cost, ref[i].Result.Set)
						}
					}
				}
			}
		}
	}
	if costMiss+setMiss > 0 {
		t.Fatalf("%d cost and %d set mismatches over %d grouped members", costMiss, setMiss, members)
	}
}

// TestSolveBatchIdenticalLocationWarmBound pins the one-ulp hazard between
// Rect.MinDist (sqrt(dx²+dy²)) and Point.Dist (math.Hypot). The optimum is
// the co-located pair at (75, 85), whose Hypot distance from the query is
// one ulp BELOW the sqrt-form MinDist of the leaf holding it. A repeated
// query's warm bound equals that optimum exactly, so handing
// Nextafter(warm) to the IR-tree iterator as its Limit would prune the
// leaf and the member would return its NN seed. The warm bound must prune
// owners and partial sets only (exact.go, parallel.go).
func TestSolveBatchIdenticalLocationWarmBound(t *testing.T) {
	b := dataset.NewBuilder("ulp")
	// Eight objects at fanout 4 pack, by y, into two leaves under one
	// root: the low leaf {(90,60), (80,70), A, B} has its corner nearest
	// to q at exactly A's location.
	b.Add(geo.Point{X: 50, Y: 92.5}, "k0")    // NN of k0, d = 12.5
	b.Add(geo.Point{X: 62.5, Y: 106.5}, "k1") // NN of k1, d = 14
	oa := b.Add(geo.Point{X: 75, Y: 85}, "k0")
	ob := b.Add(geo.Point{X: 75, Y: 85}, "k1")
	b.Add(geo.Point{X: 80, Y: 70}, "pad")
	b.Add(geo.Point{X: 90, Y: 60}, "pad")
	b.Add(geo.Point{X: 10, Y: 95}, "pad")
	b.Add(geo.Point{X: 20, Y: 99}, "pad")
	e := NewEngine(b.Build(), 4)
	k0, _ := e.DS.Vocab.Lookup("k0")
	k1, _ := e.DS.Vocab.Lookup("k1")
	q := Query{Loc: geo.Point{X: 62.5, Y: 92.5}, Keywords: kwds.NewSet(k0, k1)}
	queries := []Query{q, q, q}

	// Fixture self-check: an iterator limited one ulp above the optimum
	// yields the two NN seeds and then stops — it never reaches the
	// optimal owners, although their distance lies below the limit.
	opt := q.Loc.Dist(e.DS.Object(oa).Loc)
	it := e.Tree.NewRelevantNNIterator(q.Loc, kwds.NewQueryIndex(q.Keywords))
	it.Limit(math.Nextafter(opt, math.Inf(1)))
	it.Next()
	it.Next()
	if o, d, ok := it.Next(); ok {
		t.Fatalf("fixture: limited iterator yielded object %d at %v; MinDist and Dist agree here, so the limit no longer prunes the optimal owner's leaf", o.ID, d)
	}

	for _, cost := range []CostKind{MaxSum, Dia} {
		for _, par := range []int{1, 2} {
			eng := *e
			eng.Parallelism = 1
			want, err := eng.Solve(q, cost, OwnerExact)
			if err != nil {
				t.Fatal(err)
			}
			if want.Cost != opt || !reflect.DeepEqual(want.Set, []dataset.ObjectID{oa, ob}) {
				t.Fatalf("fixture: independent %v answer (%v, %v), want the co-located pair at %v",
					cost, want.Cost, want.Set, opt)
			}
			eng.Parallelism = par
			eng.Metrics = NewEngineMetrics(nil)
			ref := []BatchItem{{Result: want}, {Result: want}, {Result: want}}
			compareBatchItems(t, fmt.Sprintf("%v/par%d", cost, par),
				eng.SolveBatch(queries, cost, OwnerExact, 1), ref)
			if eng.Metrics.BatchWarmStarts() != 2 {
				t.Fatalf("%v/par%d: %d warm starts, want 2 (the repeats must run warm for this test to bite)",
					cost, par, eng.Metrics.BatchWarmStarts())
			}
		}
	}
}
