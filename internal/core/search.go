package core

// Per-search state. An Engine is the immutable index plus the Config it
// serves under, shared by every query; everything one execution mutates
// lives on a search: the call's bindings, the execution record and the
// algorithm scratch (pool.go). Every exported query entry point reaches
// the algorithms through Config.run, which takes a search from searchPool
// and releases it; searchPool is the package's only pool. A helper
// execution inside a call (the degrade fallback) builds a child search
// literal that names exactly what it shares with its parent, so anything
// not named is zero: no budget, no context, no scratch, a record of its
// own.

import (
	"context"
	"fmt"
	"slices"
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

	// The execution record: what the running algorithm has done so far,
	// written in place, so an unwind loses none of it — the degrade path
	// reads it (degrade.go). open starts it, improve records each cheaper
	// cover and result turns it into the answer.
	q     Query
	cost  costFn
	qi    *kwds.QueryIndex
	algo  *trace.Span // the algorithm's span
	start time.Time
	stats Stats
	// inc is the incumbent, the cheapest feasible cover found so far, at
	// cost incCost; both hold once found is set. inc is a reused buffer.
	inc     []dataset.ObjectID
	incCost float64
	found   bool
	// df and tf are the N(q) seed's d_f and t_f (nnSeed).
	df float64
	tf kwds.ID
	// top, on a TopK execution, is the ranking: the cover search's leaf
	// action (topk.go).
	top *topKHeap

	// own is the candidate stream's pool and bit index (ownerEnum) and
	// the cover search's scratch; sub holds nearestOwner's per-owner
	// pool; cao is Cao-Exact's. Only the buffers survive a release.
	own, sub ownerScratch
	cao      caoScratch
}

// searchPool recycles searches together with their scratch buffers.
var searchPool = sync.Pool{New: func() any { return new(search) }}

// release drops every reference the call attached — a parked search pins
// no context, trace, query or ranking — and returns s to the pool with
// its buffers, grown capacity included.
func (s *search) release() {
	*s = search{inc: s.inc[:0], own: s.own, sub: s.sub, cao: s.cao}
	searchPool.Put(s)
}

// run is the one way into the algorithms: it rejects a query the keyword
// masks cannot represent, takes a search from the pool, binds the call's
// source, context, trace and node budget, runs exec on it under the one
// recover (search.exec), applies the degrade policy to an interrupted
// execution (search.degrade) and releases the search. Elapsed is the
// wall time of the whole call, and the prune counters reach the trace
// whatever the outcome. A search only ever comes from here, or from a
// child literal built beneath this frame, so the shield is structural.
func (c *Config) run(ctx context.Context, src source, q Query, exec func(*search) (Result, error)) (res Result, err error) {
	start := time.Now()
	cancellable := ctx != nil && ctx.Done() != nil
	if len(q.Keywords) > kwds.MaxQueryKeywords {
		err = fmt.Errorf("%w (%d given)", ErrTooManyKeywords, len(q.Keywords))
	} else if cancellable {
		err = ctx.Err()
	}
	if err == nil {
		s := searchPool.Get().(*search)
		s.Config, s.src, s.budget = *c, src, c.callBudget(ctx)
		if cancellable {
			s.ctx = ctx
		}
		if ctx != nil {
			s.tr = trace.FromContext(ctx)
		}
		if res, err = s.exec(exec); err != nil {
			res, err = s.degrade(err)
		}
		s.tr.AddPrunes(res.Stats.Prunes)
		s.release()
	}
	res.Stats.Elapsed = time.Since(start)
	return res, err
}

// exec runs one execution under the one recover: a budget or
// cancellation unwind from any algorithm — no algorithm shields itself —
// surfaces as exec's error.
func (s *search) exec(fn func(*search) (Result, error)) (res Result, err error) {
	defer recoverBudget(&err)
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

// open starts the record of one algorithm run on q under cost: the
// counters and the incumbent reset, q's keyword index, the run's span
// (name) and its clock. With seeded it computes N(q), the first
// incumbent (nnSeed); an infeasible query ends the span and fails.
func (s *search) open(q Query, cost costFn, name string, seeded bool) error {
	s.q, s.cost, s.qi = q, cost, kwds.NewQueryIndex(q.Keywords)
	s.stats, s.found, s.df, s.tf = Stats{}, false, 0, 0
	s.start = time.Now()
	s.algo = s.tr.Begin(name)
	if !seeded {
		return nil
	}
	if err := s.nnSeed(); err != nil {
		s.algo.End()
		return err
	}
	return nil
}

// improve records a feasible cover of cost c as the incumbent. set is
// copied into the record's buffer, so it may alias the caller's scratch.
func (s *search) improve(set []dataset.ObjectID, c float64) {
	s.inc = append(s.inc[:0], set...)
	s.incCost, s.found = c, true
}

// result closes a completed run: its span ends, and its answer is the
// incumbent with the run's counters.
func (s *search) result() (Result, error) {
	s.algo.End()
	return Result{Set: canonical(s.inc), Cost: s.incCost, Stats: s.stats}, nil
}

// cancelPollMask downsamples cancellation checks in the hot loops: the
// context is consulted once every cancelPollMask+1 counted events, which
// bounds cancellation latency to a few hundred node expansions while
// keeping the per-node overhead to one nil check.
const cancelPollMask = 255

// chargeNode counts one expanded search node against the budget and,
// on a cancellable call, periodically polls the context.
func (s *search) chargeNode() {
	s.stats.NodesExpanded++
	n := s.stats.NodesExpanded
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

// nnSeed records the nearest neighbor set N(q) as the incumbent, at its
// cost under the run's cost function, with d_f = max_{o∈N(q)} d(o,q) and
// t_f, the first query keyword whose NN is that far (Cao-Appro2's pivot).
// It returns ErrInfeasible when some query keyword has no object. The
// phase is charged to Phases.Seed and recorded as an "nn_seed" span when
// tracing.
func (s *search) nnSeed() error {
	sp := s.tr.Begin("nn_seed")
	t0 := time.Now()
	q, ids := s.q, s.inc[:0]
	for i, kw := range q.Keywords {
		id, d, ok := s.lookupNN(q.Loc, kw)
		if !ok {
			s.stats.Phases.Seed += time.Since(t0)
			sp.End()
			return ErrInfeasible
		}
		if i == 0 || d > s.df {
			s.df, s.tf = d, kw
		}
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	s.inc, s.incCost, s.found = ids, s.src.evalSet(s.cost, q.Loc, ids), true
	s.stats.SetsEvaluated = 1
	s.stats.Phases.Seed += time.Since(t0)
	if sp != nil {
		sp.Attr("seed_size", float64(len(ids)))
		sp.Attr("seed_cost", s.incCost)
		sp.Attr("d_f", s.df)
	}
	sp.End()
	return nil
}
