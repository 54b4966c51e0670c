package core

import (
	"context"
	"runtime"
	"sync"

	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// BatchItem is the outcome of one query in a batch execution.
type BatchItem struct {
	Result Result
	Err    error
}

// WordQuery is one query of a batch as the wire carries it: a location
// and keyword strings.
type WordQuery struct {
	Loc   geo.Point
	Words []string
}

// BatchAnswer is the outcome of one query of SolveWordsBatch.
type BatchAnswer struct {
	Answer
	Err error
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
// rather than draining the whole batch. A trace ctx carries records
// nothing: the items solve concurrently (untraced).
func (e *Engine) SolveBatchCtx(ctx context.Context, queries []Query, cost CostKind, method Method, workers int) []BatchItem {
	ctx = untraced(ctx)
	out := make([]BatchItem, len(queries))
	keywords := 0
	for _, q := range queries {
		keywords += len(q.Keywords)
	}
	eng := e.forBatch(len(queries), keywords)
	runBatch(ctx, len(queries), workers, func(i int, err error) {
		if err == nil {
			out[i].Result, err = eng.SolveCtx(ctx, queries[i], cost, method)
		}
		out[i].Err = err
	})
	return out
}

// SolveWordsBatch answers queries on sv, each with the SolveWords call a
// single query makes, on the batch pool SolveBatchCtx runs: the same
// workers, the same cancellation. Each failure is SolveWords' own, in
// place. An *Engine resolves each query's words once, then solves as
// SolveBatch does — counted in its metrics and over its NNCache or a
// cache private to the batch — the queries whose words it knows, the
// ones a caller resolving first would pass there.
func SolveWordsBatch(ctx context.Context, sv Solver, queries []WordQuery, cost CostKind, method Method, workers int) []BatchAnswer {
	ctx = untraced(ctx)
	out := make([]BatchAnswer, len(queries))
	solve := func(i int) (Answer, error) {
		return sv.SolveWords(ctx, queries[i].Loc, queries[i].Words, cost, method)
	}
	if e, ok := sv.(*Engine); ok {
		kws, errs := make([]kwds.Set, len(queries)), make([]error, len(queries))
		solvable, keywords := 0, 0
		for i, q := range queries {
			if kws[i], errs[i] = e.ResolveWords(q.Words); errs[i] == nil {
				solvable++
				keywords += len(kws[i])
			}
		}
		eng := e.forBatch(solvable, keywords)
		solve = func(i int) (Answer, error) {
			if errs[i] != nil {
				return Answer{}, errs[i]
			}
			return eng.answer(ctx, Query{Loc: queries[i].Loc, Keywords: kws[i]}, cost, method)
		}
	}
	runBatch(ctx, len(queries), workers, func(i int, err error) {
		if err == nil {
			out[i].Answer, err = solve(i)
		}
		out[i].Err = err
	})
	return out
}

// untraced returns ctx without the trace it may carry: a batch's items
// solve concurrently, and a trace has one writer.
func untraced(ctx context.Context) context.Context {
	if trace.FromContext(ctx) == nil {
		return ctx
	}
	return trace.NewContext(ctx, nil)
}

// runBatch is the one batch worker pool: it calls do(i, nil) for every i
// in [0, n) on workers goroutines (≤ 0 means GOMAXPROCS). Once ctx is
// done, every query not yet run gets do(i, ctx.Err()) instead — a
// worker's dequeue marks it, or the feeder, which stops enqueueing the
// moment ctx is done — so a cancelled batch returns promptly with
// partial results, and a marked query never reaches a solver or its
// metrics. The feeder's indexes are disjoint from the workers', so no
// item is written twice.
func runBatch(ctx context.Context, n, workers int, do func(i int, err error)) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				do(i, ctx.Err())
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			for j := i; j < n; j++ {
				do(j, ctx.Err())
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
}

// forBatch counts a batch of queries into the engine's metrics and
// returns the engine it solves on: e itself when it has an NNCache or
// the batch nothing to solve, otherwise a copy carrying a cache private
// to the batch. Its capacity is keywords, Σ|q.ψ| over the batch, the
// number of distinct (location, keyword) NN seeds the batch can ask for,
// and its counters count privately. The grid spans the tree's root
// rectangle, which is at hand, where Dataset.MBR would scan every object
// once per batch.
func (e *Engine) forBatch(queries, keywords int) *Engine {
	if e.Metrics != nil {
		e.Metrics.batchQueries.Add(uint64(queries))
	}
	if queries == 0 || e.NNCache != nil {
		return e
	}
	b := *e
	b.NNCache = newNNCache(e.Tree.Root().Rect, keywords, nil)
	return &b
}
