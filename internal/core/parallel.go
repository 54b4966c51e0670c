package core

// Intra-query parallel owner enumeration (DESIGN.md §10). The distance
// owner-driven search is embarrassingly parallel per candidate owner:
// each owner's cover enumeration needs only the shared incumbent cost as
// a bound. The coordinator goroutine keeps the serial algorithm's
// enumeration role — it pops candidate owners ascending by d(o,q) and
// grows the candidate pool — while a bounded worker pool runs the
// per-owner sub-searches, sharing the incumbent through an atomic bound.
//
// Determinism: parallel runs return the identical cost AND identical
// canonical set as the serial path (enforced by TestParallelMatchesSerial
// under -race). Three mechanisms combine to guarantee it:
//
//  1. Per-owner invariance. A per-owner sub-search returns the DFS-first
//     minimum-cost set whenever its bound stays above that minimum: a
//     branch containing the first minimum leaf has a lower bound ≤ the
//     minimum < bound, so it is never pruned before that leaf is found,
//     and improvements are strict, so later equal-cost leaves never
//     replace it. The bound's exact trajectory is irrelevant.
//  2. Tie-aware bounds. Workers search one ulp above the incumbent
//     (math.Nextafter), so a set merely equal to the incumbent's cost is
//     still found when it comes from an earlier-enumerated owner.
//  3. Ordered merge. offer() resolves candidates lexicographically by
//     (cost, enumeration index), with the NN seed at index −1 — exactly
//     the order in which the serial loop's strict-improvement rule keeps
//     the first owner achieving the final cost.
//
// The enumeration itself also matches: the shared bound at any pop is at
// least the serial incumbent at the same pop (the parallel run knows a
// subset of the finished owners the serial run knows), so the serial pop
// sequence is a prefix of the parallel one and enumeration indices agree;
// the extra owners a parallel run admits have strictly larger indices and
// can at best tie, so the merge discards them.

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// parShared is the coordination state of one parallel exact search.
type parShared struct {
	// nodes is the global node-expansion counter: under parallelism the
	// NodeBudget must trip on the sum across workers, not on any one
	// worker's count (chargeNode).
	nodes atomic.Int64
	// bound holds math.Float64bits of the incumbent cost for lock-free
	// reads in the DFS hot loops. Costs are non-negative, so the uint64
	// order of the bits matches the float order and the value is only
	// ever stored decreasing (under mu).
	bound atomic.Uint64
	// failed flips once when any goroutine panics (budget trip,
	// cancellation): workers drain their queue without working, the
	// producer stops enumerating, and the coordinator re-raises the
	// recorded panic after the join so recoverBudget converts it.
	failed atomic.Bool

	mu     sync.Mutex
	cost   float64
	ord    int // enumeration index of the incumbent's owner; -1 = NN seed
	set    []dataset.ObjectID
	panicV any
}

func newParShared(seedSet []dataset.ObjectID, seedCost float64) *parShared {
	sh := &parShared{cost: seedCost, ord: -1, set: seedSet}
	sh.bound.Store(math.Float64bits(seedCost))
	return sh
}

// costLoad returns the incumbent cost without taking the mutex.
func (sh *parShared) costLoad() float64 { return math.Float64frombits(sh.bound.Load()) }

// pruneBound returns the bound a sub-search prunes against: one ulp above
// the incumbent, so an equal-cost set from an earlier-enumerated owner
// stays findable (see the determinism notes atop this file).
func (sh *parShared) pruneBound() float64 {
	return math.Nextafter(sh.costLoad(), math.Inf(1))
}

// offer installs (set, c), found for the owner with enumeration index
// ord, iff it beats the incumbent in (cost, ord) lexicographic order —
// the serial tie-breaking order. set is copied via canonical, so callers
// may keep reusing its backing array.
func (sh *parShared) offer(set []dataset.ObjectID, c float64, ord int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c > sh.cost || (c == sh.cost && ord >= sh.ord) {
		return
	}
	sh.cost, sh.ord, sh.set = c, ord, canonical(set)
	sh.bound.Store(math.Float64bits(c))
}

// fail records the first panic value and flips failed.
func (sh *parShared) fail(r any) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.failed.Load() {
		sh.panicV = r
		sh.failed.Store(true)
	}
}

// firstPanic returns the recorded panic value, nil when none.
func (sh *parShared) firstPanic() any {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.panicV
}

// worker derives the search one pool goroutine runs on: it shares the
// engine, the call's context and budget, and the coordination state —
// nothing else, so the memo and the holder stay with the coordinator and
// workers publish only through sh.
func (s *search) worker(sh *parShared) *search {
	return &search{Engine: s.Engine, ctx: s.ctx, budget: s.budget, shared: sh}
}

// ownerTask is one unit of worker work: the best feasible set owned by
// the last entry of pool. pool and bits are snapshots taken at enqueue
// time; the producer only ever appends past their lengths (or
// reallocates, leaving the snapshot's array untouched), so workers read
// them without synchronization. bits must be a copied header slice — the
// producer rewrites the outer elements on append, and a slice header is
// several words.
type ownerTask struct {
	ord  int
	pool []cand
	bits [][]int32
}

// ownerExactPar is the parallel form of ownerExact, dispatched when the
// call resolved to more than one worker. The producer is the same
// enumerator the serial search loops over; its per-owner step enqueues
// the sub-search instead of running it. The trace layout mirrors the
// serial one, with the per-owner sub-search spans grouped under a
// concurrent "owner_workers" group span.
func (s *search) ownerExactPar(q Query, cost costFn) (Result, error) {
	start := time.Now()
	workers := s.workers
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := s.tr.Begin("owner_exact")
	var stats Stats
	stats.Workers = workers
	s.trackStats(&stats)
	seed, seedCost, df, err := s.nnSeed(q, cost, &stats)
	if err != nil {
		algo.End()
		return Result{}, err
	}
	stats.SetsEvaluated = 1
	if algo != nil {
		algo.Attr("workers", float64(workers))
	}

	sh := newParShared(canonical(seed), seedCost)
	s.noteIncumbent(sh.set, sh.cost, cost.kind)
	// The workers' snapshots die at the join below, before the deferred
	// release lets the backing arrays recirculate.
	en := s.owners(q, qi, cost, df, true, &stats)
	defer en.release()
	grp := s.tr.BeginGroup("owner_workers")

	tasks := make(chan ownerTask, 2*workers)
	workerStats := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wk *search, ws *Stats) {
			defer wg.Done()
			wk.ownerWorker(qi, cost, tasks, grp, ws)
		}(s.worker(sh), &workerStats[w])
	}

	// The producer runs on the coordinator goroutine. A panic here
	// (cancellation poll) is parked in sh instead of unwinding past the
	// channel close — the workers must always see a closed channel, or
	// they would block forever — and re-raised after the join.
	func() {
		defer func() {
			if r := recover(); r != nil {
				sh.fail(r)
			}
		}()
		for ord := 0; !sh.failed.Load() && en.next(sh.costLoad()); ord++ {
			bits := make([][]int32, len(en.bits))
			copy(bits, en.bits)
			tasks <- ownerTask{ord: ord, pool: en.pool, bits: bits}
		}
	}()
	close(tasks)
	wg.Wait()
	grp.End()

	for w := range workerStats {
		stats.merge(&workerStats[w])
	}
	en.finish(sh.cost)
	algo.End()
	// Workers have joined, so sh holds the merged incumbent across every
	// worker's discoveries; note it before re-raising a parked panic so a
	// degrade (DESIGN.md §11) can return the best answer any worker found.
	s.noteIncumbent(sh.set, sh.cost, cost.kind)
	if p := sh.firstPanic(); p != nil {
		panic(p) // the shielded frame above (solveInner, enter) converts it
	}
	stats.Elapsed = time.Since(start)
	return Result{Set: sh.set, Cost: sh.cost, Cost2: cost.kind, Stats: stats}, nil
}

// ownerWorker consumes owner tasks until the channel closes. After a
// failure it keeps draining so the producer never blocks on a full
// channel.
func (s *search) ownerWorker(qi *kwds.QueryIndex, cost costFn, tasks <-chan ownerTask, grp *trace.Group, stats *Stats) {
	scratch := getOwnerScratch()
	defer putOwnerScratch(scratch)
	for t := range tasks {
		if s.shared.failed.Load() {
			continue
		}
		s.runOwnerTask(qi, cost, t, grp, scratch, stats)
	}
}

// runOwnerTask solves one owner sub-search, trapping budget/cancel
// panics into the shared failure slot.
func (s *search) runOwnerTask(qi *kwds.QueryIndex, cost costFn, t ownerTask, grp *trace.Group, scratch *ownerScratch, stats *Stats) {
	sh := s.shared
	defer func() {
		if r := recover(); r != nil {
			sh.fail(r)
		}
	}()
	fault.Hit(fault.PoolWorker)
	sp := grp.Begin("best_with_owner")
	nodes0 := stats.NodesExpanded
	// pruneBound leaves equal-cost sets findable; offer() then resolves
	// the tie by index.
	set, c := s.bestWithOwner(qi, cost, t.pool, t.bits, sh.pruneBound(), scratch, stats, nil)
	if set == nil {
		sp.Drop()
		return
	}
	sh.offer(set, c, t.ord)
	if sp != nil {
		owner := t.pool[len(t.pool)-1]
		sp.Attr("owner_id", float64(owner.o.ID))
		sp.Attr("d_owner", owner.d)
		sp.Attr("ord", float64(t.ord))
		sp.Attr("nodes", float64(stats.NodesExpanded-nodes0))
		sp.Attr("cost", c)
	}
	sp.End()
}

// caoSearchPar fans the top level of Cao-Exact's branch-and-bound out
// across workers: the root branches on one keyword's candidate list, and
// each candidate roots an independent subtree whose enumeration only
// needs the incumbent bound. Subtree index doubles as the merge order,
// so the same (cost, ord) rule as ownerExactPar keeps results identical
// to the serial search. Returns the best (set, cost) found, merging
// worker stats into stats.
func (s *search) caoSearchPar(qi *kwds.QueryIndex, cost CostKind, cands [][]kwCand, branch int, seedSet []dataset.ObjectID, seedCost float64, stats *Stats) ([]dataset.ObjectID, float64) {
	sh := newParShared(seedSet, seedCost)
	workers := s.workers
	grp := s.tr.BeginGroup("bnb_workers")
	tasks := make(chan int, 2*workers)
	workerStats := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wk *search, ws *Stats) {
			defer wg.Done()
			wk.caoWorker(qi, cost, cands, branch, tasks, grp, ws)
		}(s.worker(sh), &workerStats[w])
	}
	for j := range cands[branch] {
		if sh.failed.Load() {
			break
		}
		tasks <- j
	}
	close(tasks)
	wg.Wait()
	grp.End()
	for w := range workerStats {
		stats.merge(&workerStats[w])
	}
	// Merged incumbent across workers, noted before the parked panic
	// re-raises so a degrade keeps the best answer found (see
	// ownerExactPar).
	s.noteIncumbent(sh.set, sh.cost, cost)
	if p := sh.firstPanic(); p != nil {
		panic(p) // solveInner converts it
	}
	return sh.set, sh.cost
}

// caoWorker consumes top-level subtree indices until the channel closes.
func (s *search) caoWorker(qi *kwds.QueryIndex, cost CostKind, cands [][]kwCand, branch int, tasks <-chan int, grp *trace.Group, stats *Stats) {
	scratch := getCaoScratch()
	defer putCaoScratch(scratch)
	cs := &caoSearch{run: s, qi: qi, cost: costOf(cost), cands: cands, stats: stats, sh: s.shared}
	for j := range tasks {
		if s.shared.failed.Load() {
			continue
		}
		s.runCaoTask(cs, scratch, j, branch, grp)
	}
	scratch.chosen, scratch.chosenIDs = cs.chosen, cs.chosenIDs
}

// runCaoTask runs one top-level subtree, trapping budget/cancel panics
// into the shared failure slot.
func (s *search) runCaoTask(cs *caoSearch, scratch *caoScratch, j, branch int, grp *trace.Group) {
	sh := s.shared
	defer func() {
		if r := recover(); r != nil {
			sh.fail(r)
		}
	}()
	fault.Hit(fault.PoolWorker)
	kc := cs.cands[branch][j]
	bound := sh.pruneBound()
	if kc.d >= bound {
		cs.stats.Prunes[trace.PruneDistanceBreak]++
		return
	}
	if cs.cost.combine(kc.d, 0) >= bound {
		cs.stats.Prunes[trace.PrunePairBound]++
		return
	}
	sp := grp.Begin("bnb_subtree")
	nodes0 := cs.stats.NodesExpanded
	cs.ord = j
	cs.chosen = append(scratch.chosen[:0], kc.o)
	cs.chosenIDs = append(scratch.chosenIDs[:0], kc.o.ID)
	cs.dfs(kc.mask, kc.d, 0)
	scratch.chosen, scratch.chosenIDs = cs.chosen[:0], cs.chosenIDs[:0]
	if sp != nil {
		if nodes := cs.stats.NodesExpanded - nodes0; nodes > 16 {
			sp.Attr("root_id", float64(kc.o.ID))
			sp.Attr("ord", float64(j))
			sp.Attr("nodes", float64(nodes))
			sp.End()
		} else {
			// Tiny subtrees are noise; fold them into the group span.
			sp.Drop()
		}
	}
}
