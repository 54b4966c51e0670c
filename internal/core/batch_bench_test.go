package core

import (
	"math/rand"
	"testing"
)

// benchBatchFixture builds the batch benchmark workload: a mid-size
// engine and a zipfian-skewed batch (hot locations, hot keyword
// combinations — the traffic shape the NN cache exists for).
func benchBatchFixture(n, batch int) (*Engine, []Query) {
	rng := rand.New(rand.NewSource(77))
	e := genEngine(rng, n, 24, 4)
	e.Parallelism = 1
	return e, skewedBatch(rng, batch, 24)
}

// BenchmarkSolveBatch times one 64-query skewed batch three ways: over an
// engine NN cache (engine-cache), over the cache an uncached engine's batch
// builds for itself (no-cache), and as the same queries solved one Solve at
// a time on the uncached engine (independent). Single worker and
// Parallelism=1 throughout, so the deltas are the cache's work, not
// concurrency. nncache-hit-rate is the engine cache's share of NN
// resolutions.
func BenchmarkSolveBatch(b *testing.B) {
	const batchSize = 64
	e, queries := benchBatchFixture(12000, batchSize)

	b.Run("engine-cache", func(b *testing.B) {
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
	b.Run("no-cache", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.SolveBatch(queries, MaxSum, OwnerExact, 1)
		}
	})
	b.Run("independent", func(b *testing.B) {
		b.ReportAllocs()
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

// TestBatchGroupedAllocsFlat pins the batch path's allocation behavior:
// re-running the same batch on a warmed engine cache stays allocation-flat
// per query (pooled scratch and allocation-free cache hits keep the steady
// state bounded).
func TestBatchGroupedAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	e, queries := benchBatchFixture(500, 16)
	e.EnableNNCache(4096)
	e.SolveBatch(queries, MaxSum, OwnerExact, 1) // warm pools and cache
	got := testing.AllocsPerRun(10, func() {
		e.SolveBatch(queries, MaxSum, OwnerExact, 1)
	})
	// Budget: measured 162 per 16-query run, about 10 per query, plus a
	// quarter of headroom. The grouped path this replaced measured 206 on
	// the same fixture, so the old 70-per-query bound no longer says
	// anything about this path.
	maxAllocs := float64(len(queries)) * 12.5
	if got > maxAllocs {
		t.Fatalf("batch allocates %.0f/run for %d queries, want <= %.0f",
			got, len(queries), maxAllocs)
	}
}
