package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/testutil"
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

// solveEach answers queries one Solve at a time: the independent run a
// batch must reproduce.
func solveEach(e *Engine, queries []Query, cost CostKind, method Method) []BatchItem {
	out := make([]BatchItem, len(queries))
	for i, q := range queries {
		r, err := e.Solve(q, cost, method)
		out[i] = BatchItem{Result: r, Err: err}
	}
	return out
}

// compareBatchItems asserts bit-identical batch vs independent results:
// the same error, the same cost bits, deeply equal canonical sets.
func compareBatchItems(t *testing.T, label string, got, want []BatchItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if (got[i].Err == nil) != (want[i].Err == nil) ||
			got[i].Err != nil && got[i].Err.Error() != want[i].Err.Error() {
			t.Fatalf("%s item %d: err %v vs %v", label, i, got[i].Err, want[i].Err)
		}
		if got[i].Err != nil {
			continue
		}
		if math.Float64bits(got[i].Result.Cost) != math.Float64bits(want[i].Result.Cost) {
			t.Fatalf("%s item %d: cost %v vs %v (must be bit-identical)",
				label, i, got[i].Result.Cost, want[i].Result.Cost)
		}
		if !reflect.DeepEqual(got[i].Result.Set, want[i].Result.Set) {
			t.Fatalf("%s item %d: set %v vs %v", label, i, got[i].Result.Set, want[i].Result.Set)
		}
	}
}

// tieFixture builds a dataset made of exact distance ties — 150 sites on
// the 5-unit grid, each hosting 2–4 co-located objects with 1–2 of 8
// keywords — and six queries at one cell centre (equidistant from its four
// corner sites, and from every mirror pair beyond them) carrying one base
// keyword set and the same set one keyword wider.
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

// identicalLocationFixture is three repeats of one query at (62.5, 92.5)
// whose optimum, the co-located pair at (75, 85), lies at a Point.Dist
// one ulp below the Rect.MinDist of the leaf holding it (DESIGN.md §15):
// the repeats are answered from the NN cache, and must still find it.
func identicalLocationFixture(t *testing.T) (*Engine, []Query) {
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
	for _, cost := range []CostKind{MaxSum, Dia} {
		want, err := e.Solve(q, cost, OwnerExact)
		if err != nil || !reflect.DeepEqual(want.Set, []dataset.ObjectID{oa, ob}) {
			t.Fatalf("fixture: independent %v answer (%v, %v, %v), want the co-located pair", cost, want.Cost, want.Set, err)
		}
	}
	return e, []Query{q, q, q}
}

// TestSolveBatchMatchesSequential is the batch differential: every row,
// under every column — cost × method × batch workers × Parallelism × NN
// cache (the batch's own, or an engine cache of 16 entries, evicting
// constantly, or of 4096) — returns bit-identical costs and canonical sets
// to one Solve per query on an uncached serial engine. The rows carry an
// infeasible member, exact distance ties and repeats of one location.
func TestSolveBatchMatchesSequential(t *testing.T) {
	type fixture struct {
		e       *Engine
		queries []Query
	}
	type row struct {
		name     string
		fixtures []fixture
	}
	var rows []row
	{
		rng := rand.New(rand.NewSource(50))
		e := genEngine(rng, 500, 10, 3)
		queries := make([]Query, 40)
		for i := range queries {
			queries[i] = randQuery(rng, 10, 1+rng.Intn(4))
		}
		queries[7].Keywords = kwds.NewSet(999) // covered by no object
		rows = append(rows, row{"random", []fixture{{e, queries}}})
	}
	{
		rng := rand.New(rand.NewSource(90))
		e := genEngine(rng, 400, 10, 3)
		queries := skewedBatch(rng, 32, 10)
		// A hot query widened by an uncoverable keyword fails alone.
		queries[5].Keywords = queries[5].Keywords.Union(kwds.NewSet(999))
		rows = append(rows, row{"skewed_infeasible", []fixture{{e, queries}}})
	}
	ties := row{name: "ties"}
	for seed := int64(0); seed < 40; seed++ {
		e, queries := tieFixture(rand.New(rand.NewSource(1600 + seed)))
		ties.fixtures = append(ties.fixtures, fixture{e, queries})
	}
	rows = append(rows, ties)
	e, queries := identicalLocationFixture(t)
	rows = append(rows, row{"identical_location", []fixture{{e, queries}}})

	costs := []CostKind{MaxSum, Dia, Sum, MinMax, SumMax}
	methods := []Method{OwnerExact, OwnerAppro}
	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			for fi, f := range r.fixtures {
				f.e.Parallelism = 1
				refs := make(map[[2]int][]BatchItem)
				for _, cost := range costs {
					for _, method := range methods {
						refs[[2]int{int(cost), int(method)}] = solveEach(f.e, f.queries, cost, method)
					}
				}
				for _, cache := range []int{0, 16, 4096} {
					for _, par := range []int{1, 2} {
						// One engine per (cache, Parallelism), so a cache carries
						// entries from every earlier batch into the next.
						eng := *f.e
						eng.Parallelism = par
						eng.Metrics = NewEngineMetrics(nil)
						eng.EnableNNCache(cache)
						for _, cost := range costs {
							for _, method := range methods {
								for _, workers := range []int{-3, 0, 1, 3, 16} {
									label := fmt.Sprintf("fixture %d %v/%v/cache%d/par%d/w%d", fi, cost, method, cache, par, workers)
									compareBatchItems(t, label, eng.SolveBatch(f.queries, cost, method, workers),
										refs[[2]int{int(cost), int(method)}])
								}
							}
						}
						if cache == 0 {
							var sb strings.Builder
							if err := eng.Metrics.WriteText(&sb); err != nil {
								t.Fatal(err)
							}
							if strings.Contains(sb.String(), "coskq_nncache") {
								t.Fatal("a batch's own NN cache reported into the engine's metrics")
							}
						}
					}
				}
			}
		})
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
			ref := solveEach(e, queries, cost, method)
			label := cost.String() + "/" + method.String()
			compareBatchItems(t, label+"/single", solveEach(&cached, queries, cost, method), ref)
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

// TestSolveBatchGroupedMatchesIndependent: on a skewed batch — hot
// locations and keyword sets repeated with jitter — every cost function and
// both owner-driven methods, across worker counts, return bit-identical
// (cost, canonical set) results to an independent per-query run.
func TestSolveBatchGroupedMatchesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	e := genEngine(rng, 400, 10, 3)
	e.Parallelism = 1
	queries := skewedBatch(rng, 32, 10)

	for _, cost := range []CostKind{MaxSum, Dia, Sum, MinMax, SumMax} {
		for _, method := range []Method{OwnerExact, OwnerAppro} {
			ref := solveEach(e, queries, cost, method)
			for _, workers := range []int{1, 3, 8} {
				label := fmt.Sprintf("%v/%v/w%d", cost, method, workers)
				compareBatchItems(t, label, e.SolveBatch(queries, cost, method, workers), ref)
			}
		}
	}
}

// TestSolveBatchGroupedMatchesParallel: a skewed batch composes with
// intra-query parallelism without changing answers.
func TestSolveBatchGroupedMatchesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	e := genEngine(rng, 400, 10, 3)
	e.Parallelism = 1
	queries := skewedBatch(rng, 24, 10)

	for _, cost := range []CostKind{MaxSum, Dia} {
		ref := solveEach(e, queries, cost, OwnerExact)
		par := *e
		par.Parallelism = 2
		compareBatchItems(t, cost.String()+"/par2",
			par.SolveBatch(queries, cost, OwnerExact, 2), ref)
	}
}

// TestSolveBatchPreCancelled: a skewed owner-driven batch whose context is
// already done runs nothing, and every item carries the context error.
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

// TestSolveBatchGroupedInfeasibleMember: an infeasible query among
// near-identical hot queries fails alone; the others still answer,
// identically to an independent run.
func TestSolveBatchGroupedInfeasibleMember(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	e := genEngine(rng, 300, 10, 3)
	e.Parallelism = 1
	queries := skewedBatch(rng, 20, 10)
	// Widen one hot query by an uncoverable keyword.
	queries[5].Keywords = queries[5].Keywords.Union(kwds.NewSet(999))

	ref := solveEach(e, queries, MaxSum, OwnerExact)
	if !errors.Is(ref[5].Err, ErrInfeasible) {
		t.Fatal("fixture: poisoned query should be infeasible")
	}
	compareBatchItems(t, "infeasible", e.SolveBatch(queries, MaxSum, OwnerExact, 1), ref)
}

// TestSolveBatchCtxCancelBetweenItems cancels a single-worker batch
// after a known prefix has completed: the completed items keep their
// results, the in-flight item unwinds with the context error, and the
// queued tail is marked without running. Afterwards the serial alloc
// guard re-runs to prove the unwound items returned their pooled scratch
// (nnmemo, anytime holders) — a leak shows up as fresh allocations.
func TestSolveBatchCtxCancelBetweenItems(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rng := rand.New(rand.NewSource(53))
	e := genEngine(rng, 800, 8, 3)
	e.Metrics = NewEngineMetrics(nil)

	// Items 0-2 are linear under Brute (one keyword each); item 3 is an
	// astronomically large search only cancellation can end; 4+ queue
	// behind it on the single worker.
	queries := make([]Query, 8)
	for i := range queries {
		queries[i] = randQuery(rng, 8, 1)
	}
	queries[3] = slowQuery(8)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan []BatchItem, 1)
	go func() { done <- e.SolveBatchCtx(ctx, queries, MaxSum, Brute, 1) }()

	// The metrics sink counts each finished solve, so QueriesTotal()==3
	// means exactly the prefix completed and item 3 is in flight.
	testutil.WaitFor(t, 30*time.Second, "prefix of 3 items to complete", func() bool {
		return e.Metrics.QueriesTotal() >= 3
	})
	cancel()

	var out []BatchItem
	select {
	case out = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled batch did not return")
	}

	for i := 0; i < 3; i++ {
		if out[i].Err != nil {
			t.Errorf("completed item %d lost its result: %v", i, out[i].Err)
			continue
		}
		if !e.Feasible(queries[i], out[i].Result.Set) {
			t.Errorf("completed item %d: infeasible set %v", i, out[i].Result.Set)
		}
	}
	if !errors.Is(out[3].Err, context.Canceled) {
		t.Errorf("in-flight item err = %v, want Canceled", out[3].Err)
	}
	for i := 4; i < len(out); i++ {
		if !errors.Is(out[i].Err, context.Canceled) {
			t.Errorf("queued item %d err = %v, want Canceled", i, out[i].Err)
		}
		if out[i].Result.Set != nil {
			t.Errorf("queued item %d ran anyway: %v", i, out[i].Result.Set)
		}
	}

	// Pool-scratch leak guard (loose; TestOwnerExactAllocs pins the exact
	// ceilings). The sink is detached because labeled counters format their keys.
	al := *e
	al.Metrics = nil
	al.Parallelism = 1
	q := randQuery(rng, 8, 2)
	if _, err := al.Solve(q, MaxSum, OwnerExact); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	got := testing.AllocsPerRun(30, func() {
		if _, err := al.Solve(q, MaxSum, OwnerExact); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocs = 60
	if got > maxAllocs {
		t.Errorf("allocs after cancelled batch = %.1f/op, want <= %d (pool scratch leaked?)", got, maxAllocs)
	}
}

func TestSolveBatchEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	e := genEngine(rng, 50, 5, 2)
	if got := e.SolveBatch(nil, MaxSum, OwnerExact, 4); len(got) != 0 {
		t.Fatal("empty batch should return empty slice")
	}
}
