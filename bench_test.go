// Root benchmarks: one testing.B benchmark per table/figure of the
// paper's evaluation (T1, E1–E8; see DESIGN.md §5) plus the ablations A1
// (pruning rules of the owner-driven exact search) and A2 (IR-tree vs
// linear scan for keyword NN). They run the same workloads as
// cmd/coskq-bench at benchmark-friendly scale; per-op time is the mean
// per-query latency of the named algorithm at the named setting.
package coskq_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"coskq"
	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/geo"
	"coskq/internal/invindex"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
	roadnetpub "coskq/roadnet"
)

// engineCache shares indexed datasets across benchmarks in one process.
var engineCache = struct {
	sync.Mutex
	m map[string]*coskq.Engine
}{m: map[string]*coskq.Engine{}}

func cachedEngine(key string, build func() *coskq.Dataset) *coskq.Engine {
	engineCache.Lock()
	defer engineCache.Unlock()
	if e, ok := engineCache.m[key]; ok {
		return e
	}
	e := coskq.NewEngine(build(), 0)
	engineCache.m[key] = e
	return e
}

func hotelEngine() *coskq.Engine {
	return cachedEngine("hotel", func() *coskq.Dataset {
		return coskq.Generate(coskq.ProfileHotel(1))
	})
}

// benchQueries draws a reusable query batch.
func benchQueries(e *coskq.Engine, n, k int, seed int64) []coskq.Query {
	g := coskq.NewQueryGen(e, 0, 40, seed)
	out := make([]coskq.Query, n)
	for i := range out {
		loc, kws := g.Next(k)
		out[i] = coskq.Query{Loc: loc, Keywords: kws}
	}
	return out
}

// runAlgo measures one (cost, method) pair over a query batch: each b.N
// iteration answers one query (round-robin over the batch).
func runAlgo(b *testing.B, e *coskq.Engine, queries []coskq.Query, cost coskq.CostKind, m coskq.Method) {
	b.Helper()
	e.NodeBudget = 50_000_000
	defer func() { e.NodeBudget = 0 }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		_, err := e.Solve(q, cost, m)
		if err != nil && err != coskq.ErrInfeasible && err != core.ErrBudgetExceeded {
			b.Fatal(err)
		}
	}
}

var paperAlgos = []struct {
	name string
	m    coskq.Method
}{
	{"OwnerExact", coskq.OwnerExact},
	{"CaoExact", coskq.CaoExact},
	{"OwnerAppro", coskq.OwnerAppro},
	{"CaoAppro1", coskq.CaoAppro1},
	{"CaoAppro2", coskq.CaoAppro2},
}

// BenchmarkOwnerExact times the owner-driven exact search at the large
// |q.ψ| where one query holds the most search (DESIGN.md §10): the serial
// baseline any future intra-query parallelism is measured against.
func BenchmarkOwnerExact(b *testing.B) {
	e := hotelEngine()
	for _, k := range []int{9, 12, 15} {
		queries := benchQueries(e, 32, k, 900)
		b.Run(fmt.Sprintf("qkw=%d", k), func(b *testing.B) {
			runAlgo(b, e, queries, coskq.MaxSum, coskq.OwnerExact)
		})
	}
}

// BenchmarkT1DatasetStats regenerates the dataset statistics table's
// underlying pass (profile generation + one-pass statistics).
func BenchmarkT1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := coskq.Generate(coskq.ProfileHotel(int64(i)))
		if s := ds.Stats(); s.NumObjects != 20790 {
			b.Fatal("bad profile")
		}
	}
}

// qkwSweep is the E1–E4 driver: per (|q.ψ|, algorithm) sub-benchmark.
func qkwSweep(b *testing.B, e *coskq.Engine, cost coskq.CostKind) {
	for _, k := range []int{3, 6, 9, 12, 15} {
		queries := benchQueries(e, 32, k, int64(100+k))
		for _, a := range paperAlgos {
			b.Run(fmt.Sprintf("qkw=%d/%s", k, a.name), func(b *testing.B) {
				runAlgo(b, e, queries, cost, a.m)
			})
		}
	}
}

// BenchmarkE1QueryKeywordsMaxSumHotel — paper figure "effect of |q.ψ|,
// MaxSum cost, Hotel dataset".
func BenchmarkE1QueryKeywordsMaxSumHotel(b *testing.B) {
	qkwSweep(b, hotelEngine(), coskq.MaxSum)
}

// BenchmarkE2QueryKeywordsDiaHotel — same sweep under the Dia cost.
func BenchmarkE2QueryKeywordsDiaHotel(b *testing.B) {
	qkwSweep(b, hotelEngine(), coskq.Dia)
}

// BenchmarkE3QueryKeywordsGN — |q.ψ| sweep on the (scaled) GN profile.
func BenchmarkE3QueryKeywordsGN(b *testing.B) {
	e := cachedEngine("gn", func() *coskq.Dataset {
		return coskq.Generate(coskq.ProfileGN(1, 0.01))
	})
	qkwSweep(b, e, coskq.MaxSum)
}

// BenchmarkE4QueryKeywordsWeb — |q.ψ| sweep on the (scaled) Web profile.
func BenchmarkE4QueryKeywordsWeb(b *testing.B) {
	e := cachedEngine("web", func() *coskq.Dataset {
		return coskq.Generate(coskq.ProfileWeb(1, 0.02))
	})
	qkwSweep(b, e, coskq.MaxSum)
}

// avgKwSweep is the E5/E6 driver over augmented-Hotel datasets.
func avgKwSweep(b *testing.B, cost coskq.CostKind) {
	for _, avg := range []float64{4, 8, 16, 32} {
		e := cachedEngine(fmt.Sprintf("hotel-kw%.0f", avg), func() *coskq.Dataset {
			ds := coskq.Generate(coskq.ProfileHotel(1))
			if avg > 4 {
				ds = coskq.AugmentKeywords(ds, avg, 2)
			}
			return ds
		})
		queries := benchQueries(e, 16, 10, int64(200+int(avg)))
		for _, a := range paperAlgos {
			b.Run(fmt.Sprintf("avgkw=%.0f/%s", avg, a.name), func(b *testing.B) {
				runAlgo(b, e, queries, cost, a.m)
			})
		}
	}
}

// BenchmarkE5AvgKeywordsMaxSum — paper figure "effect of avg |o.ψ|,
// MaxSum" (|q.ψ| = 10).
func BenchmarkE5AvgKeywordsMaxSum(b *testing.B) { avgKwSweep(b, coskq.MaxSum) }

// BenchmarkE6AvgKeywordsDia — same sweep under the Dia cost.
func BenchmarkE6AvgKeywordsDia(b *testing.B) { avgKwSweep(b, coskq.Dia) }

// scaleSweep is the E7/E8 driver over GN-augmented dataset sizes.
func scaleSweep(b *testing.B, cost coskq.CostKind) {
	for _, n := range []int{50_000, 200_000} {
		e := cachedEngine(fmt.Sprintf("gn-n%d", n), func() *coskq.Dataset {
			base := coskq.Generate(coskq.ProfileGN(1, 0.01))
			return coskq.AugmentToN(base, n, 3)
		})
		queries := benchQueries(e, 16, 10, int64(300+n))
		for _, a := range paperAlgos {
			b.Run(fmt.Sprintf("n=%d/%s", n, a.name), func(b *testing.B) {
				runAlgo(b, e, queries, cost, a.m)
			})
		}
	}
}

// BenchmarkE7ScalabilityMaxSum — paper figure "scalability, MaxSum"
// (benchmark-scale sizes; cmd/coskq-bench -full runs the 2M–10M sweep).
func BenchmarkE7ScalabilityMaxSum(b *testing.B) { scaleSweep(b, coskq.MaxSum) }

// BenchmarkE8ScalabilityDia — same sweep under the Dia cost.
func BenchmarkE8ScalabilityDia(b *testing.B) { scaleSweep(b, coskq.Dia) }

// BenchmarkA1Pruning quantifies each pruning rule of the owner-driven
// exact search by disabling it (DESIGN.md ablation A1).
func BenchmarkA1Pruning(b *testing.B) {
	e := hotelEngine()
	queries := benchQueries(e, 32, 9, 400)
	cases := []struct {
		name string
		ab   core.Ablation
	}{
		{"full", core.Ablation{}},
		{"no-owner-ring", core.Ablation{NoOwnerRing: true}},
		{"no-incumbent-break", core.Ablation{NoIncumbentBreak: true}},
		{"no-pair-prune", core.Ablation{NoPairPrune: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			e.Ablation = c.ab
			defer func() { e.Ablation = core.Ablation{} }()
			runAlgo(b, e, queries, coskq.MaxSum, coskq.OwnerExact)
		})
	}
}

// BenchmarkA2KeywordNN compares the IR-tree keyword NN against a linear
// scan over the inverted index posting list (DESIGN.md ablation A2).
func BenchmarkA2KeywordNN(b *testing.B) {
	ds := datagen.Generate(datagen.Config{
		Name: "a2", NumObjects: 100_000, VocabSize: 2000, AvgKeywords: 5, Clusters: 100, Seed: 7,
	})
	tree := irtree.Build(ds, 0)
	inv := invindex.Build(ds)
	ranked := inv.ByFrequency()
	kws := ranked[:100] // the frequent head, where the scan is most expensive

	b.Run("irtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := geo.Point{X: float64(i%1000) + 0.5, Y: float64((i*7)%1000) + 0.5}
			tree.NN(p, kws[i%len(kws)])
		}
	})
	b.Run("postings-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := geo.Point{X: float64(i%1000) + 0.5, Y: float64((i*7)%1000) + 0.5}
			kw := kws[i%len(kws)]
			best, bestD := kwds.ID(0), -1.0
			_ = best
			for _, id := range inv.Postings(kw) {
				if d := p.Dist(ds.Object(id).Loc); bestD < 0 || d < bestD {
					bestD = d
				}
			}
		}
	})
}

// BenchmarkX1ExtensionCosts covers the extension cost functions (Sum,
// MinMax, SumMax) with their exact and approximate solvers on the Hotel
// profile (DESIGN.md §4.7).
func BenchmarkX1ExtensionCosts(b *testing.B) {
	e := hotelEngine()
	queries := benchQueries(e, 24, 6, 500)
	for _, cost := range []coskq.CostKind{coskq.Sum, coskq.MinMax, coskq.SumMax} {
		for _, m := range []struct {
			name   string
			method coskq.Method
		}{{"Exact", coskq.OwnerExact}, {"Appro", coskq.OwnerAppro}} {
			b.Run(fmt.Sprintf("%v/%s", cost, m.name), func(b *testing.B) {
				runAlgo(b, e, queries, cost, m.method)
			})
		}
	}
}

// BenchmarkX2TopK measures top-k retrieval against single-answer exact
// search (k=1 should be comparable to OwnerExact; cost grows mildly in k).
func BenchmarkX2TopK(b *testing.B) {
	e := hotelEngine()
	queries := benchQueries(e, 24, 6, 600)
	for _, k := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, err := e.TopK(q, coskq.MaxSum, k); err != nil && err != coskq.ErrInfeasible {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkX3NetworkCoSKQ measures the road-network extension: exact and
// approximate CoSKQ under shortest-path distance on a 40×40 grid.
func BenchmarkX3NetworkCoSKQ(b *testing.B) {
	g := roadnetpub.GenerateGrid(40, 40, 100, 0.2, 80, 1)
	rng := rand.New(rand.NewSource(2))
	objs := make([]roadnetpub.Object, 2000)
	for i := range objs {
		ids := make([]kwds.ID, 1+rng.Intn(3))
		for j := range ids {
			ids[j] = kwds.ID(rng.Intn(40))
		}
		objs[i] = roadnetpub.Object{
			Node:     roadnetpub.NodeID(rng.Intn(g.NumNodes())),
			Keywords: kwds.NewSet(ids...),
		}
	}
	eng, err := roadnetpub.NewEngine(g, objs)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]roadnetpub.Query, 16)
	for i := range queries {
		ids := make([]kwds.ID, 4)
		for j := range ids {
			ids[j] = kwds.ID(rng.Intn(40))
		}
		queries[i] = roadnetpub.Query{
			Node:     roadnetpub.NodeID(rng.Intn(g.NumNodes())),
			Keywords: kwds.NewSet(ids...),
		}
	}
	b.Run("Exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Exact(queries[i%len(queries)], coskq.MaxSum); err != nil && err != roadnetpub.ErrInfeasible {
				b.Fatal(err)
			}
		}
	})
	b.Run("Appro", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Appro(queries[i%len(queries)], coskq.MaxSum); err != nil && err != roadnetpub.ErrInfeasible {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkX4BatchWorkers measures concurrent batch throughput at several
// worker counts (per-op = one query answered within the batch).
func BenchmarkX4BatchWorkers(b *testing.B) {
	e := hotelEngine()
	queries := benchQueries(e, 64, 6, 700)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i += len(queries) {
				e.SolveBatch(queries, coskq.MaxSum, coskq.OwnerAppro, workers)
			}
		})
	}
}

// BenchmarkX5BooleanKNN measures the boolean kNN query of the related
// literature on the Hotel profile.
func BenchmarkX5BooleanKNN(b *testing.B) {
	e := hotelEngine()
	queries := benchQueries(e, 32, 2, 800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		e.BooleanKNN(q.Loc, q.Keywords, 10)
	}
}
