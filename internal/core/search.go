package core

// Per-search state. An Engine is the immutable index plus the Config it
// serves under, shared by every query; everything one execution mutates
// lives on a search: the call's bindings, its anytime holder and its
// algorithm scratch (pool.go). Every exported query entry point reaches
// the algorithms through Config.enter, which takes a search from
// searchPool and releases it; searchPool is the package's only pool. A
// helper execution inside a call (the degrade fallback) builds a child
// search literal that names exactly what it shares with its parent, so
// anything not named is zero: no budget, no context, no holder, no
// scratch.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// search is one execution's state. It is confined to one goroutine.
type search struct {
	Config // the policy; a search reads its objects through src alone
	src    source

	// ctx is the call's cancellation context, attached only when it can
	// actually be cancelled: chargeNode's poll stays a single nil check
	// on background contexts.
	ctx context.Context
	// tr is the call's execution trace (carried in the context via
	// internal/trace). Every trace call is nil-safe, so a nil tr — the
	// common case — costs one branch and never allocates.
	tr *trace.Trace
	// budget is this call's node budget (Config.callBudget); zero
	// means unlimited.
	budget int
	// any is the anytime holder: the feasible incumbent and live Stats
	// the degrade path falls back on when the search is cut short
	// (degrade.go).
	any *anytime

	// own is the candidate stream's pool and bit index (ownerEnum) and
	// the cover search's scratch; sub holds nearestOwner's per-owner
	// pool; cao is Cao-Exact's. Only the buffers survive a release.
	own, sub ownerScratch
	cao      caoScratch
}

// searchPool recycles searches together with their holder and scratch
// buffers.
var searchPool = sync.Pool{New: func() any { return &search{any: new(anytime)} }}

// release drops every reference the call attached — a parked search pins
// no context, trace, Stats or ranking — and returns s to the pool with
// its buffers, grown capacity included.
func (s *search) release() {
	h := s.any
	h.valid, h.stats, h.topk = false, nil, nil
	*s = search{any: h, own: s.own, sub: s.sub, cao: s.cao}
	searchPool.Put(s)
}

// enter is the one way into the algorithms: it rejects a query the
// keyword masks cannot represent, takes a search from the pool, binds the
// call's source, context, trace and node budget, runs fn on it and
// releases it. A budget or cancellation unwind that no frame below
// converted (solveInner, topKInner and fallbackAppro do, so that their
// callers can degrade) surfaces as fn's error, never as a panic. A search
// only ever comes from here, or from a child literal built beneath this
// frame, so the shield is structural.
func (c *Config) enter(ctx context.Context, src source, q Query, fn func(*search) error) (err error) {
	if len(q.Keywords) > kwds.MaxQueryKeywords {
		return fmt.Errorf("%w (%d given)", ErrTooManyKeywords, len(q.Keywords))
	}
	cancellable := ctx != nil && ctx.Done() != nil
	if cancellable {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	s := searchPool.Get().(*search)
	defer s.release()
	defer recoverBudget(&err)
	s.Config, s.src, s.budget = *c, src, c.callBudget(ctx)
	if cancellable {
		s.ctx = ctx
	}
	if ctx != nil {
		s.tr = trace.FromContext(ctx)
	}
	return fn(s)
}

// callBudget is one call's node budget: NodeBudget, unless a rate and a
// deadline on ctx derive one from the time left.
func (c *Config) callBudget(ctx context.Context) int {
	if c.NodeBudgetPerSecond > 0 && ctx != nil {
		if dl, ok := ctx.Deadline(); ok {
			return max(1, int(time.Until(dl).Seconds()*c.NodeBudgetPerSecond))
		}
	}
	return c.NodeBudget
}

// solve runs the dispatch and, when the search was cut short, applies
// the call's degrade policy: recover the aborted execution's Stats
// and — policy permitting — turn the error into an anytime answer
// (degrade.go). Whatever the outcome, the prune counters reach the trace.
func (s *search) solve(q Query, cost CostKind, method Method) (Result, error) {
	res, err := s.solveInner(q, cost, method)
	if err != nil {
		res, err = s.degradeSolve(q, cost, method, res, err)
	}
	s.tr.AddPrunes(res.Stats.Prunes)
	return res, err
}

// solveInner runs the pair's cell. No algorithm shields itself: a
// budget or cancellation unwind from any of them lands on the recover
// deferred here, so solve sees it as an error to degrade.
func (s *search) solveInner(q Query, cost CostKind, method Method) (res Result, err error) {
	defer recoverBudget(&err)
	if costMethod(cost, method) < 0 || cells[cost][method].run == nil {
		return Result{}, fmt.Errorf("%w: %v with %v", ErrUnsupported, cost, method)
	}
	return cells[cost][method].run(s, q, costOf(cost))
}

// cancelPollMask downsamples cancellation checks in the hot loops: the
// context is consulted once every cancelPollMask+1 counted events, which
// bounds cancellation latency to a few hundred node expansions while
// keeping the per-node overhead to one nil check.
const cancelPollMask = 255

// chargeNode counts one expanded search node against the budget and,
// on a cancellable call, periodically polls the context.
func (s *search) chargeNode(stats *Stats) {
	stats.NodesExpanded++
	n := stats.NodesExpanded
	if s.budget > 0 && n > s.budget {
		panic(budgetExceeded{})
	}
	if s.ctx != nil && n&cancelPollMask == 0 {
		if err := s.ctx.Err(); err != nil {
			panic(searchCanceled{err})
		}
	}
}

// pollCancel checks the call's context every cancelPollMask+1 calls,
// unwinding the search when it is done. counter is any monotonically
// increasing per-execution count (e.g. Stats.CandidatesSeen); it
// downsamples the check in loops that do not expand search nodes.
func (s *search) pollCancel(counter int) {
	if s.ctx == nil || counter&cancelPollMask != 0 {
		return
	}
	if err := s.ctx.Err(); err != nil {
		panic(searchCanceled{err})
	}
}

// traceClock returns the time a step that may earn a span starts: now
// on a traced call, the zero time — no clock read — otherwise. The step's
// span, if it is kept, opens after the step at this start
// (trace.Trace.BeginAt).
func (s *search) traceClock() time.Time {
	if s.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// lookupNN resolves one keyword NN: the source's NNCache first (the
// engine's, or a batch's own), then the source. Every cache hit is
// validity-checked (nncache.go), so the chain returns bit-identical
// results to a bare Tree.NN whichever layer answers. Misses with a cache
// attached walk NN2 — the same best-first search, continued one object
// further — so the validity radius can be recorded. Only the tree arm
// carries a cache.
func (s *search) lookupNN(p geo.Point, kw kwds.ID) (dataset.ObjectID, float64, bool) {
	cache := s.src.cache
	if cache == nil {
		return s.src.nn(p, kw)
	}
	fault.Hit(fault.NNCacheProbe)
	if id, d, ok, hit := cache.Lookup(p, kw); hit {
		return id, d, ok
	}
	id, d1, d2, ok := s.src.nn2(p, kw)
	var loc geo.Point
	if ok {
		loc = s.src.object(id).Loc
	}
	cache.Store(p, kw, id, loc, d1, d2, ok)
	return id, d1, ok
}

// nnSeed computes the nearest neighbor set N(q), its cost under the given
// cost function, d_f = max_{o∈N(q)} d(o,q) and t_f, the first query
// keyword whose NN is that far (Cao-Appro2's pivot). It returns
// ErrInfeasible when some query keyword has no object. The phase is
// charged to stats.Phases.Seed and recorded as an "nn_seed" span when
// tracing.
func (s *search) nnSeed(q Query, cost costFn, stats *Stats) (set []dataset.ObjectID, c, df float64, tf kwds.ID, err error) {
	sp := s.tr.Begin("nn_seed")
	t0 := time.Now()
	ids := make([]dataset.ObjectID, 0, len(q.Keywords))
	for i, kw := range q.Keywords {
		id, d, ok := s.lookupNN(q.Loc, kw)
		if !ok {
			stats.Phases.Seed += time.Since(t0)
			sp.End()
			return nil, 0, 0, 0, ErrInfeasible
		}
		if i == 0 || d > df {
			df, tf = d, kw
		}
		dup := false
		for _, x := range ids {
			if x == id {
				dup = true
				break
			}
		}
		if !dup {
			ids = append(ids, id)
		}
	}
	c = s.src.evalSet(cost, q.Loc, ids)
	stats.Phases.Seed += time.Since(t0)
	if sp != nil {
		sp.Attr("seed_size", float64(len(ids)))
		sp.Attr("seed_cost", c)
		sp.Attr("d_f", df)
	}
	sp.End()
	return ids, c, df, tf, nil
}
