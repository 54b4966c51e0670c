package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"coskq/internal/kwds"
)

// slowQuery returns a query whose brute-force search is astronomically
// large (many frequent keywords over a big candidate pool), so only
// cancellation can end it quickly.
func slowQuery(vocab int) Query {
	ids := make([]kwds.ID, 6)
	for i := range ids {
		ids[i] = kwds.ID(i % vocab)
	}
	return Query{Keywords: kwds.NewSet(ids...)}
}

// TestConcurrentSolveMetricsExact hammers one shared engine from solo
// Solve goroutines and a SolveBatch, then checks the metrics sink
// counted every execution exactly — the satellite requirement that
// counters are exact under parallel recording (and, under -race, that a
// shared engine plus shared sink is data-race free).
func TestConcurrentSolveMetricsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	e := genEngine(rng, 300, 10, 3)
	e.Metrics = NewEngineMetrics(nil)

	queries := make([]Query, 8)
	for i := range queries {
		queries[i] = randQuery(rng, 10, 1+rng.Intn(3))
	}
	batchQueries := make([]Query, 30)
	for i := range batchQueries {
		batchQueries[i] = randQuery(rng, 10, 1+rng.Intn(3))
	}

	const goroutines = 6
	const rounds = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, q := range queries {
					method := OwnerExact
					if (g+r)%2 == 1 {
						method = OwnerAppro
					}
					if _, err := e.Solve(q, MaxSum, method); err != nil && err != ErrInfeasible {
						t.Errorf("solve: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.SolveBatch(batchQueries, Dia, OwnerExact, 4)
	}()
	wg.Wait()

	want := uint64(goroutines*rounds*len(queries) + len(batchQueries))
	if got := e.Metrics.QueriesTotal(); got != want {
		t.Fatalf("coskq_queries_total = %d, want exactly %d", got, want)
	}
	lat := e.Metrics.Registry().Histogram("coskq_query_seconds", latencyBuckets)
	if got := lat.Count(); got != want {
		t.Fatalf("latency histogram count = %d, want exactly %d", got, want)
	}
}

// TestSolveCtxCancelMidSearch verifies that a deadline interrupts an
// exponential search deep inside its DFS.
func TestSolveCtxCancelMidSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	e := genEngine(rng, 800, 8, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()

	type outcome struct {
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := e.SolveCtx(ctx, slowQuery(8), MaxSum, Brute)
		done <- outcome{err}
	}()
	select {
	case o := <-done:
		if !errors.Is(o.err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not interrupt the search")
	}
}

// TestSolveBatchCtxPreCancelled: a batch handed an already-cancelled
// context runs nothing — the feeder stops, and a worker marks any query it
// dequeued without solving it — so it returns promptly, every item
// carries the context error, and the metrics sink records no solve.
func TestSolveBatchCtxPreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	e := genEngine(rng, 200, 8, 3)
	e.Metrics = NewEngineMetrics(nil)
	queries := make([]Query, 50)
	for i := range queries {
		queries[i] = slowQuery(8)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	out := e.SolveBatchCtx(ctx, queries, MaxSum, Brute, 4)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("pre-cancelled batch took %v", elapsed)
	}
	for i, item := range out {
		if !errors.Is(item.Err, context.Canceled) {
			t.Fatalf("item %d err = %v, want Canceled", i, item.Err)
		}
		if item.Result.Set != nil {
			t.Fatalf("item %d ran anyway", i)
		}
	}
	if n := e.Metrics.QueriesTotal(); n != 0 {
		t.Fatalf("pre-cancelled batch recorded %d solves, want 0", n)
	}
}

// TestSolveBatchCtxCancelMidBatch is the regression test for the
// SolveBatch cancellation fix: a batch of queries that would each run
// essentially forever must return promptly once the context deadline
// passes, with every item carrying the context error instead of the
// batch draining to completion.
func TestSolveBatchCtxCancelMidBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	e := genEngine(rng, 800, 8, 3)
	queries := make([]Query, 16)
	for i := range queries {
		queries[i] = slowQuery(8)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()

	done := make(chan []BatchItem, 1)
	go func() { done <- e.SolveBatchCtx(ctx, queries, MaxSum, Brute, 2) }()
	select {
	case out := <-done:
		for i, item := range out {
			if !errors.Is(item.Err, context.DeadlineExceeded) {
				t.Fatalf("item %d err = %v, want DeadlineExceeded", i, item.Err)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled batch did not return promptly")
	}
}

// TestTopKCtxCancelled: TopKCtx honours an already-cancelled context.
func TestTopKCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	e := genEngine(rng, 200, 8, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.TopKCtx(ctx, randQuery(rng, 8, 2), MaxSum, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestSolveCtxBackgroundMatchesSolve: the ctx plumbing must not disturb
// answers for non-cancellable contexts.
func TestSolveCtxBackgroundMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	e := genEngine(rng, 250, 8, 3)
	for i := 0; i < 10; i++ {
		q := randQuery(rng, 8, 1+rng.Intn(3))
		a, errA := e.Solve(q, MaxSum, OwnerExact)
		b, errB := e.SolveCtx(context.Background(), q, MaxSum, OwnerExact)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("query %d: err mismatch %v vs %v", i, errA, errB)
		}
		if errA == nil && a.Cost != b.Cost {
			t.Fatalf("query %d: cost mismatch %v vs %v", i, a.Cost, b.Cost)
		}
	}
}
