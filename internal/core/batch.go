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
// Queries are first clustered by location cell and keyword similarity
// (batchgroup.go); each cluster is one unit of worker work, and its
// members share NN observations and incumbent warm starts. Grouping never
// changes answers: grouped results are bit-identical to an independent
// per-query run.
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
	clusters := e.groupBatch(queries)
	if e.Metrics != nil {
		e.Metrics.recordBatch(len(queries), clusters)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(clusters) {
		workers = len(clusters)
	}

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range next {
				// solveCluster checks the context per member, so a
				// cancelled batch stops doing new work even for clusters
				// already dequeued.
				e.solveCluster(ctx, queries, clusters[ci], cost, method, out)
			}
		}()
	}
	// The feeder stops enqueueing the moment the context is done: clusters
	// never handed to a worker are marked with the context error here
	// (disjoint from the indexes workers write, so no double write), and
	// the batch returns promptly instead of draining its queue.
feed:
	for ci := range clusters {
		select {
		case next <- ci:
		case <-ctx.Done():
			err := ctx.Err()
			for _, cl := range clusters[ci:] {
				for _, i := range cl.idxs {
					out[i] = BatchItem{Err: err}
				}
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
	return out
}
