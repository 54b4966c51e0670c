package core

import (
	"context"
	"runtime"
	"sync"
)

// BatchItem is the outcome of one query in a batch execution.
type BatchItem struct {
	Result Result
	Err    error
}

// SolveBatch answers queries concurrently with the given cost function and
// algorithm, using workers goroutines (≤ 0 means GOMAXPROCS). The result
// slice is index-aligned with queries; per-query failures (e.g.
// ErrInfeasible) are reported in place without aborting the batch.
//
// Every query is an independent SolveCtx (DESIGN.md §15); the only thing
// a batch shares is a validity-radius keyword-NN cache: the engine's
// NNCache when it has one, otherwise a cache private to the batch, sized
// to the batch's keyword count, whose counters stay off the engine's
// metrics. Every cache hit is provably the NN the IR-tree walk would
// return, so batch results are bit-identical to solving each query alone.
//
// The engine's indexes are read-only during queries, so concurrent
// execution is safe; NodeBudget and Ablation must not be mutated while a
// batch is in flight.
func (e *Engine) SolveBatch(queries []Query, cost CostKind, method Method, workers int) []BatchItem {
	return e.SolveBatchCtx(context.Background(), queries, cost, method, workers)
}

// SolveBatchCtx is SolveBatch with cancellation. When ctx is cancelled
// mid-batch, in-flight queries are interrupted (their items carry the
// context error) and queued queries are marked with the context error
// without being run, so the call returns promptly with partial results
// rather than draining the whole batch.
func (e *Engine) SolveBatchCtx(ctx context.Context, queries []Query, cost CostKind, method Method, workers int) []BatchItem {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchItem, len(queries))
	if len(queries) == 0 {
		return out
	}
	if e.Metrics != nil {
		e.Metrics.batchQueries.Add(uint64(len(queries)))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	eng := e.withBatchCache(queries)

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// A query dequeued after cancellation is marked, not run,
				// so it never reaches the metrics sink as a solve.
				if err := ctx.Err(); err != nil {
					out[i] = BatchItem{Err: err}
					continue
				}
				res, err := eng.SolveCtx(ctx, queries[i], cost, method)
				out[i] = BatchItem{Result: res, Err: err}
			}
		}()
	}
	// The feeder stops enqueueing the moment the context is done: queries
	// never handed to a worker are marked with the context error here
	// (disjoint from the indexes workers write, so no double write), and
	// the batch returns promptly instead of draining its queue.
feed:
	for i := range queries {
		select {
		case next <- i:
		case <-ctx.Done():
			for j := i; j < len(queries); j++ {
				out[j] = BatchItem{Err: ctx.Err()}
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
	return out
}

// withBatchCache returns the engine a batch solves on: e itself when it
// has an NNCache, otherwise a copy carrying a cache private to the batch.
// Its capacity is Σ|q.ψ|, the number of distinct (location, keyword) NN
// seeds the batch can ask for, and its counters count privately. The grid
// spans the tree's root rectangle, which is at hand, where Dataset.MBR
// would scan every object once per batch.
func (e *Engine) withBatchCache(queries []Query) *Engine {
	if e.NNCache != nil {
		return e
	}
	n := 0
	for _, q := range queries {
		n += len(q.Keywords)
	}
	b := *e
	b.NNCache = newNNCache(e.Tree.Root().Rect, n, nil)
	return &b
}
