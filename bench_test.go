// Root benchmarks. BenchmarkExperiments times every experiment id of the
// paper's evaluation and this repository's extensions and ablations
// (internal/experiments.Table, DESIGN.md §5), the same definitions
// cmd/coskq-bench prints. The rest time single features on the Hotel
// profile.
package coskq_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"coskq"
	"coskq/internal/core"
	"coskq/internal/experiments"
	"coskq/internal/kwds"
	roadnetpub "coskq/roadnet"
)

// hotelEngine is the Hotel profile (seed 1), indexed once per process.
var hotelEngine = sync.OnceValue(func() *coskq.Engine {
	return coskq.NewEngine(coskq.Generate(coskq.ProfileHotel(1)), 0)
})

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

// BenchmarkOwnerExact times the owner-driven exact search at the large
// |q.ψ| where one query holds the most search (DESIGN.md §10): the serial
// baseline any future intra-query parallelism is measured against.
func BenchmarkOwnerExact(b *testing.B) {
	e := hotelEngine()
	e.NodeBudget = 50_000_000
	defer func() { e.NodeBudget = 0 }()
	for _, k := range []int{9, 12, 15} {
		queries := benchQueries(e, 32, k, 900)
		b.Run(fmt.Sprintf("qkw=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Solve(queries[i%len(queries)], coskq.MaxSum, coskq.OwnerExact); err != nil && err != coskq.ErrInfeasible {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExperiments times every experiment of experiments.Table, the
// definitions coskq-bench prints, on the suite's own datasets, seeds and
// node budget. A sweep runs one sub-benchmark per (cost, row, algorithm
// column), each iteration answering one query of the row's batch; T1, X2
// and A2 run whole per iteration.
func BenchmarkExperiments(b *testing.B) {
	opt := experiments.Options{Queries: 32}
	for _, e := range experiments.Table {
		b.Run(e.ID, func(b *testing.B) {
			if e.Func != nil {
				opt := opt
				opt.Out = io.Discard
				for i := 0; i < b.N; i++ {
					e.Print(opt)
				}
				return
			}
			e.Cases(opt, func(c experiments.Case) {
				for _, a := range c.Algos {
					b.Run(fmt.Sprintf("%v/%s/%s", c.Cost, c.Setting.Label, a.Name), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							_, err := c.Engine.Solve(c.Queries[i%len(c.Queries)], c.Cost, a.Method)
							if err != nil && !errors.Is(err, core.ErrInfeasible) && !errors.Is(err, core.ErrBudgetExceeded) {
								b.Fatal(err)
							}
						}
					})
				}
			})
		})
	}
}

// BenchmarkTopK measures top-k retrieval against single-answer exact
// search (k=1 should be comparable to OwnerExact; cost grows mildly in k).
func BenchmarkTopK(b *testing.B) {
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

// BenchmarkNetworkCoSKQ measures the road-network extension: exact and
// approximate CoSKQ under shortest-path distance on a 40×40 grid.
func BenchmarkNetworkCoSKQ(b *testing.B) {
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

// BenchmarkBatchWorkers measures concurrent batch throughput at several
// worker counts (per-op = one query answered within the batch).
func BenchmarkBatchWorkers(b *testing.B) {
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

// BenchmarkBooleanKNN measures the boolean kNN query of the related
// literature on the Hotel profile.
func BenchmarkBooleanKNN(b *testing.B) {
	e := hotelEngine()
	queries := benchQueries(e, 32, 2, 800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		e.BooleanKNN(q.Loc, q.Keywords, 10)
	}
}
