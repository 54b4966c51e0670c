package core

// The machinery every distance owner-driven search shares (DESIGN.md
// §4.1): the cost value, the owner enumerator and the per-owner cover
// search. The algorithms — MaxSum/Dia exact (serial and pool), Appro,
// cost_α, top-k, SumMax-Appro, MinMax-Exact — are loops over the
// enumerator that plug in a combiner and a per-owner step.

import (
	"fmt"
	"math"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// costFn is the cost one search minimizes: a CostKind, or — when alpha is
// non-zero — the general member of MaxSum's family,
// cost_α(S) = α·max d(o,q) + (1−α)·max d(o1,o2) (alpha.go). MaxSum proper
// is cost_0.5 rescaled by 2 and keeps its own case, so its values stay
// the plain sum of the two distances.
type costFn struct {
	kind  CostKind
	alpha float64
}

// combine composes the two distance components — the query distance owner
// distance and the pairwise distance owner distance — into the cost value.
// Every case is monotone in each component, which is what makes the
// partial-set lower bounds of the owner-driven search valid, and
// combine(d, 0) is exactly d (α·d under cost_α): no set containing an
// object that far from q costs less.
func (c costFn) combine(ownerDist, maxPair float64) float64 {
	switch {
	case c.alpha != 0:
		return c.alpha*ownerDist + (1-c.alpha)*maxPair
	case c.kind == Dia:
		return math.Max(ownerDist, maxPair)
	}
	return ownerDist + maxPair
}

// ownerLimit is the query distance from which on no object can belong to
// a set cheaper than bound: the inverse of combine(·, 0).
func (c costFn) ownerLimit(bound float64) float64 {
	if c.alpha != 0 {
		return bound / c.alpha
	}
	return bound
}

// eval computes the cost of the set whose members sit at pts, for a query
// at q: the one walk over the member and pairwise distances behind
// EvalCost, EvalCostAlpha and EvalPoints. It panics on an empty set.
func (c costFn) eval(q geo.Point, pts []geo.Point) float64 {
	if len(pts) == 0 {
		panic("coskq: cost of an empty set")
	}
	maxD, minD, sumD := math.Inf(-1), math.Inf(1), 0.0
	for _, p := range pts {
		d := q.Dist(p)
		sumD += d
		if d > maxD {
			maxD = d
		}
		if d < minD {
			minD = d
		}
	}
	maxPair := 0.0
	for i, p := range pts {
		for _, r := range pts[i+1:] {
			if d := p.Dist(r); d > maxPair {
				maxPair = d
			}
		}
	}
	if c.alpha == 0 {
		switch c.kind {
		case MaxSum, Dia:
		case Sum:
			return sumD
		case MinMax:
			return minD + maxPair
		case SumMax:
			return sumD + maxPair
		default:
			panic(fmt.Sprintf("coskq: unknown cost kind %d", int(c.kind)))
		}
	}
	return c.combine(maxD, maxPair)
}

// cand is one relevant object materialized by the ascending-distance
// iterator: the candidate pool of the owner-driven search.
type cand struct {
	o    *dataset.Object
	d    float64   // d(o, q)
	mask kwds.Mask // query keywords covered by o
}

// ownerEnum enumerates candidate query distance owners: relevant objects
// in ascending d(o,q) inside the ring [d_f, bound). Every relevant object
// it pops on the way — ring or not — joins pool, so when next returns, the
// owner is pool's last entry and pool is exactly the relevant content of
// the owner's disk C(q, d(owner,q)): all the per-owner step needs.
// bits[b] indexes the pool entries covering query keyword bit b. Both
// recycle through the scratch pool across queries.
type ownerEnum struct {
	s     *search
	qi    *kwds.QueryIndex
	cost  costFn
	df    float64
	stats *Stats
	// exact marks the exact searches' enumeration: it alone honours the
	// ablation switches and carries the core.owner fault point.
	exact bool

	it      *irtree.RelevantNNIterator
	loop    *trace.Span
	start   time.Time
	scratch *ownerScratch
	pool    []cand
	bits    [][]int32
}

// owners opens the enumeration for q (and the "owner_loop" span). The
// caller defers release and calls finish once the loop is done.
func (s *search) owners(q Query, qi *kwds.QueryIndex, cost costFn, df float64, exact bool, stats *Stats) ownerEnum {
	scratch := getOwnerScratch()
	return ownerEnum{
		s: s, qi: qi, cost: cost, df: df, stats: stats, exact: exact,
		loop:    s.tr.Begin("owner_loop"),
		start:   time.Now(),
		it:      s.Tree.NewRelevantNNIterator(q.Loc, qi),
		scratch: scratch,
		pool:    scratch.pool[:0],
		bits:    scratch.ensureBits(qi.Size()),
	}
}

// next advances to the next candidate owner and reports whether there is
// one. incumbent is the cost of a feasible set the caller holds: it limits
// the IR-tree walk. bound (≤ incumbent) cuts the enumeration: any set
// containing an object with combine(d, 0) ≥ bound costs at least bound.
// The two differ only under a grouped batch's warm bound, which may sit
// within one ulp of a needed owner's distance — closer than Rect.MinDist
// and Point.Dist agree — and so must never reach the iterator
// (irtree.RelevantNNIterator.Limit).
func (e *ownerEnum) next(incumbent, bound float64) bool {
	var abl Ablation
	if e.exact {
		abl = e.s.Ablation
	}
	for {
		if e.exact {
			fault.Hit(fault.OwnerEnum)
		}
		if !abl.NoIncumbentBreak {
			e.it.Limit(e.cost.ownerLimit(incumbent))
		}
		o, d, ok := e.it.Next()
		if !ok {
			return false
		}
		if e.cost.combine(d, 0) >= bound {
			// Ablation A1 measures what this break is worth by degrading
			// it to a per-object skip.
			e.stats.Prunes[trace.PruneIncumbentBreak]++
			if !abl.NoIncumbentBreak {
				return false
			}
			e.stats.CandidatesSeen++
			continue
		}
		mask := e.qi.MaskOf(o.Keywords)
		idx := int32(len(e.pool))
		e.pool = append(e.pool, cand{o: o, d: d, mask: mask})
		for b := 0; b < e.qi.Size(); b++ {
			if mask&(1<<uint(b)) != 0 {
				e.bits[b] = append(e.bits[b], idx)
			}
		}
		e.stats.CandidatesSeen++
		e.s.pollCancel(e.stats.CandidatesSeen)
		if d < e.df && !abl.NoOwnerRing {
			// No feasible set has its query distance owner closer than the
			// farthest keyword NN; o still enters the pool as a potential
			// non-owner member.
			e.stats.Prunes[trace.PruneOwnerRing]++
			continue
		}
		e.stats.OwnersTried++
		return true
	}
}

// owner returns the current candidate owner.
func (e *ownerEnum) owner() cand { return e.pool[len(e.pool)-1] }

// finish closes the loop: the search phase time and the span's effort
// attributes, read off stats as they stand (a parallel search merges its
// workers' counters first).
func (e *ownerEnum) finish(cost float64) {
	e.stats.Phases.Search = time.Since(e.start)
	if e.loop != nil {
		e.loop.Attr("candidates", float64(e.stats.CandidatesSeen))
		e.loop.Attr("owners_tried", float64(e.stats.OwnersTried))
		e.loop.Attr("nodes", float64(e.stats.NodesExpanded))
		e.loop.Attr("sets_evaluated", float64(e.stats.SetsEvaluated))
		e.loop.Attr("cost", cost)
	}
	e.loop.End()
}

// release recycles the pool and bit index. Deferred, so a budget or
// cancellation unwind recycles them too; nothing handed out of the
// enumerator — worker snapshots included — may be in use any more.
func (e *ownerEnum) release() {
	e.scratch.pool = e.pool
	putOwnerScratch(e.scratch)
}

// bestWithOwner is the cover search: the cheapest feasible set whose
// query distance owner is pool's last entry, restricted to cost < bound,
// or (nil, 0) when none exists. Every candidate member is a pool entry
// (d ≤ owner distance), and every non-owner member of a minimal set must
// cover a keyword the owner lacks, so the search runs over bits of the
// owner's uncovered keywords, branching on the rarest, with partial sets
// cut by the owner lower bound combine(d(owner,q), maxPair(partial)) ≥
// bound — the same geometric facts the paper's pairwise distance owner /
// lens pruning exploits.
//
// With top non-nil the leaf action changes from keep-the-cheapest to
// rank-them-all: every cover reached is offered to the top-k heap, whose
// k-th best cost is the bound from then on, and nothing is returned.
//
// The returned set aliases scratch.bestSet: callers copy (canonical) what
// they keep. Inside a parallel search (s.shared non-nil) the enumeration
// additionally tightens its bound from the shared incumbent, one ulp
// above it so equal-cost earlier-owner answers survive (parallel.go).
func (s *search) bestWithOwner(qi *kwds.QueryIndex, cost costFn, pool []cand, bits [][]int32, bound float64, scratch *ownerScratch, stats *Stats, top *topKHeap) ([]dataset.ObjectID, float64) {
	owner := pool[len(pool)-1]
	dof := owner.d
	need := qi.Full() &^ owner.mask

	if need == 0 {
		c := cost.combine(dof, 0)
		stats.SetsEvaluated++
		scratch.bestSet = append(scratch.bestSet[:0], owner.o.ID)
		switch {
		case top != nil:
			top.offerCover(scratch.bestSet)
		case c < bound:
			return scratch.bestSet, c
		}
		return nil, 0
	}
	if cost.combine(dof, 0) >= bound {
		stats.Prunes[trace.PruneOwnerBound]++
		return nil, 0
	}

	var (
		bestSet   = scratch.bestSet[:0]
		found     = false
		foundCost = 0.0   // cost of bestSet once found
		bestCost  = bound // the pruning bound; may dip below foundCost
		chosen    = scratch.chosen[:0]
		sh        = s.shared
	)

	var dfs func(covered kwds.Mask, maxPair float64)
	dfs = func(covered kwds.Mask, maxPair float64) {
		s.chargeNode(stats)
		if sh != nil {
			// Another worker may have improved the incumbent; tightening
			// from it here never prunes the first minimum-cost leaf (one
			// ulp above), so the sub-search minimum stays deterministic.
			if b := sh.pruneBound(); b < bestCost {
				bestCost = b
			}
		}
		if covered == qi.Full() {
			c := cost.combine(dof, maxPair)
			stats.SetsEvaluated++
			if top == nil && c >= bestCost {
				return
			}
			bestSet = append(bestSet[:0], owner.o.ID)
			for _, ci := range chosen {
				bestSet = append(bestSet, pool[ci].o.ID)
			}
			if top != nil {
				top.offerCover(bestSet)
				bestCost = top.bound()
			} else {
				bestCost = c
				found, foundCost = true, c
			}
			return
		}
		// Branch on the uncovered keyword with the fewest candidates.
		branchBit, branchLen := -1, math.MaxInt32
		for b := 0; b < qi.Size(); b++ {
			if covered&(1<<uint(b)) != 0 {
				continue
			}
			if n := len(bits[b]); n < branchLen {
				branchBit, branchLen = b, n
			}
		}
		for _, ci := range bits[branchBit] {
			c := pool[ci]
			if c.mask&^covered == 0 {
				stats.Prunes[trace.PruneNoNewKeyword]++
				continue // contributes nothing new
			}
			// Incremental pairwise distance owner bound.
			np := maxPair
			if d := c.o.Loc.Dist(owner.o.Loc); d > np {
				np = d
			}
			for _, pi := range chosen {
				if d := c.o.Loc.Dist(pool[pi].o.Loc); d > np {
					np = d
				}
			}
			if cost.combine(dof, np) >= bestCost && !s.Ablation.NoPairPrune {
				stats.Prunes[trace.PrunePairBound]++
				continue
			}
			chosen = append(chosen, ci)
			dfs(covered|c.mask, np)
			chosen = chosen[:len(chosen)-1]
		}
	}
	dfs(owner.mask, 0)
	scratch.bestSet, scratch.chosen = bestSet, chosen[:0]

	if !found {
		return nil, 0
	}
	return bestSet, foundCost
}
