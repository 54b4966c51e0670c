package core

import (
	"math/rand"
	"testing"
)

// benchBatchFixture builds the grouped-batch benchmark workload: a
// mid-size engine and a zipfian-skewed batch (hot locations, hot keyword
// combinations — the traffic shape grouping and the NN cache exist for).
func benchBatchFixture(n, batch int) (*Engine, []Query) {
	rng := rand.New(rand.NewSource(77))
	e := genEngine(rng, n, 24, 4)
	e.Parallelism = 1
	return e, skewedBatch(rng, batch, 24)
}

// BenchmarkSolveBatchGrouped compares one grouped batch execution
// (cluster sharing + engine NN cache) against the ungrouped baseline —
// the same queries solved independently one by one. Single worker and
// Parallelism=1 on both sides, so the delta is purely the shared work,
// not concurrency. nncache-hit-rate reports the cache's share of NN
// resolutions in the grouped run.
func BenchmarkSolveBatchGrouped(b *testing.B) {
	const batchSize = 64
	e, queries := benchBatchFixture(12000, batchSize)

	b.Run("grouped+cache", func(b *testing.B) {
		ec := *e
		cache := ec.EnableNNCache(4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ec.SolveBatch(queries, MaxSum, OwnerExact, 1)
		}
		b.StopTimer()
		if h, m := cache.Hits(), cache.Misses(); h+m > 0 {
			b.ReportMetric(float64(h)/float64(h+m), "nncache-hit-rate")
		}
	})
	b.Run("ungrouped", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := e.Solve(q, MaxSum, OwnerExact); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestBatchSkewedCacheHitRate is the CI bench-smoke assertion: on a
// skewed batch the NN cache must actually hit — a zero hit rate means
// the validity radius or the cell keying regressed into uselessness.
func TestBatchSkewedCacheHitRate(t *testing.T) {
	e, queries := benchBatchFixture(1000, 48)
	cache := e.EnableNNCache(4096)
	out := e.SolveBatch(queries, MaxSum, OwnerExact, 1)
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("item %d: %v", i, out[i].Err)
		}
	}
	h, m := cache.Hits(), cache.Misses()
	if h == 0 {
		t.Fatalf("skewed batch: 0 cache hits over %d lookups", h+m)
	}
	t.Logf("nncache hit rate: %.2f (%d hits / %d lookups)", float64(h)/float64(h+m), h, h+m)
}

// TestBatchGroupedAllocsFlat pins the grouped path's allocation
// behavior: re-running the same grouped batch on a warmed engine stays
// allocation-flat per member (pooled cluster shares, pooled scratch, and
// allocation-free cache hits keep the steady state bounded).
func TestBatchGroupedAllocsFlat(t *testing.T) {
	e, queries := benchBatchFixture(500, 16)
	e.EnableNNCache(4096)
	e.SolveBatch(queries, MaxSum, OwnerExact, 1) // warm pools and cache
	got := testing.AllocsPerRun(10, func() {
		e.SolveBatch(queries, MaxSum, OwnerExact, 1)
	})
	// Budget: a loose per-query bound (TestOwnerExactAllocs pins the exact
	// serial-path ceilings) plus the batch's own bookkeeping (result
	// slice, grouping, per-cluster iterators) amortized across members.
	maxAllocs := float64(len(queries)) * 70
	if got > maxAllocs {
		t.Fatalf("grouped batch allocates %.0f/run for %d queries, want <= %.0f",
			got, len(queries), maxAllocs)
	}
}
