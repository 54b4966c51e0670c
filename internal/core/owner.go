package core

// The machinery every distance owner-driven search shares (DESIGN.md
// §4.1): the cost value, the owner enumerator and the cover search. Every
// algorithm of the family — exact, approximate, cost_α, top-k,
// pairs-first and the nearest-owner loop — is a loop over the
// enumerator's candidate stream that plugs in a cost row and a per-owner
// step; none walks the index on its own.

import (
	"fmt"
	"math"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// keyMember names the aggregate of the members' query distances a cost
// reads as its query component D. The member attaining it is the search's
// owner: the farthest or the nearest member, or — for the sum, which every
// member feeds — the farthest again, with D growing as members join.
type keyMember uint8

const (
	farthest keyMember = iota // D = max d(o,q)
	nearest                   // D = min d(o,q)
	total                     // D = Σ d(o,q)
)

// costFn is the cost one search minimizes, as a value: with D the key
// member's aggregate and P = max d(o1,o2) the pairwise component,
//
//	cost(S) = join(wq·D, wp·P),  join ∈ {+, max}.
//
// Every behaviour a search derives from its cost — combine, the iterator
// limit, the ring break, extend, eval — reads these fields; costRows and
// costAlpha are the only places that say which cost is which. ×1 and +0
// are exact, so the unit-weight rows evaluate to the plain d+p / max(d,p).
type costFn struct {
	kind    CostKind // the row; pairsExact reads it
	key     keyMember
	joinMax bool
	wq, wp  float64
}

// costRows is the cost family, one row per CostKind. MaxSum is cost_0.5
// rescaled by 2, so its values stay the plain sum of the two distances.
var costRows = [...]costFn{
	MaxSum: {kind: MaxSum, key: farthest, wq: 1, wp: 1},
	Dia:    {kind: Dia, key: farthest, joinMax: true, wq: 1, wp: 1},
	Sum:    {kind: Sum, key: total, wq: 1, wp: 0},
	MinMax: {kind: MinMax, key: nearest, wq: 1, wp: 1},
	SumMax: {kind: SumMax, key: total, wq: 1, wp: 1},
}

// costOf returns kind's row.
func costOf(kind CostKind) costFn {
	if kind < 0 || int(kind) >= len(costRows) {
		panic(fmt.Sprintf("coskq: unknown cost kind %d", int(kind)))
	}
	return costRows[kind]
}

// costAlpha is the general member of MaxSum's family,
// cost_α(S) = α·max d(o,q) + (1−α)·max d(o1,o2) (alpha.go).
func costAlpha(alpha float64) costFn {
	return costFn{kind: MaxSum, key: farthest, wq: alpha, wp: 1 - alpha}
}

// combine composes the query component D and the pairwise component P
// into the cost value. It is monotone in each, which is what makes the
// partial-set lower bounds of the owner-driven search valid, and
// combine(d, 0) = wq·d bounds every set containing an object that far
// from q from below — under every row: the farthest member is at least
// that far, the sum at least that large, and the nearest member plus the
// pairwise distance (unit weights) reach it by the triangle inequality.
// That is the ring break (ownerEnum.pop).
func (c costFn) combine(D, P float64) float64 {
	if c.joinMax {
		return math.Max(c.wq*D, c.wp*P)
	}
	return c.wq*D + c.wp*P
}

// ownerLimit is the query distance from which on no object can belong to
// a set cheaper than bound: the inverse of combine(·, 0).
func (c costFn) ownerLimit(bound float64) float64 { return bound / c.wq }

// extend is the query component after a member at query distance d joins
// a partial set whose component is D: the owner fixes it, except under
// the sum, which every member feeds.
func (c costFn) extend(D, d float64) float64 {
	if c.key == total {
		return D + d
	}
	return D
}

// positionBlind reports whether the cost reads its members through their
// query distances alone, which is when a candidate is dominated by any
// other at most as far that covers at least its query keywords: swapping
// it for its dominator keeps coverage and never raises the cost, so some
// optimum uses undominated candidates only (ownerEnum.pop drops the rest).
func (c costFn) positionBlind() bool { return c.wp == 0 }

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
	return c.combine([...]float64{farthest: maxD, nearest: minD, total: sumD}[c.key], maxPair)
}

// cand is one relevant object materialized by the ascending-distance
// iterator: the candidate pool of the owner-driven search. It holds what
// the per-owner steps read — id and location inline, so the cover
// search's pairwise distances do not chase an object pointer each.
type cand struct {
	id   dataset.ObjectID
	loc  geo.Point
	d    float64   // d(o, q)
	mask kwds.Mask // query keywords covered by o
}

// ownerEnum is the one candidate stream: relevant objects popped in
// ascending d(o,q) up to the ring break, each joining the search's
// s.own.pool, with s.own.bits[b] indexing the pool entries that cover
// query keyword bit b. On top of the stream it enumerates candidate
// owners — the pops inside the ring [d_f, bound) — so when next returns,
// the owner is the pool's last entry and the pool is exactly the
// relevant content of the owner's disk C(q, d(owner,q)): all the
// per-owner step needs. Pool and bits are the search's scratch, so they
// recycle with it.
type ownerEnum struct {
	s    *search
	cost costFn
	df   float64
	// exact marks the exact searches' enumeration: it alone honours the
	// ablation switches (abl stays zero otherwise) and carries the
	// core.owner fault point.
	exact bool
	abl   Ablation

	it    relevantStream
	loop  *trace.Span
	start time.Time
	// maximal is the antichain of coverage masks popped so far, kept for
	// position-blind costs only (dominated).
	maximal []kwds.Mask
}

// owners opens the enumeration for the record's query and its
// "owner_loop" span, with df as the owner ring's inner radius. The caller
// calls finish once the loop is done.
func (s *search) owners(df float64, exact bool) ownerEnum {
	loop := s.tr.Begin("owner_loop")
	en := s.ownerStream(df, exact)
	en.loop = loop
	return en
}

// ownerStream opens the enumeration without a span, emptying s.own's
// pool and bits: pairsExact only drains it, inside a span of its own.
func (s *search) ownerStream(df float64, exact bool) ownerEnum {
	s.own.pool = s.own.pool[:0]
	s.own.ensureBits(s.qi.Size())
	en := ownerEnum{
		s: s, cost: s.cost, df: df, exact: exact,
		start: time.Now(),
		it:    s.src.relevant(s.q.Loc, s.qi),
	}
	if exact {
		en.abl = s.Ablation
	}
	return en
}

// pop advances the stream to the next pool entry and reports whether there
// is one. bound is the cost of a feasible set the caller holds: it limits
// the stream (relevantStream.Limit), and it is the ring break, since any
// set containing an object with combine(d, 0) ≥ bound costs at least
// bound. Every pop polls the call's context.
func (e *ownerEnum) pop(bound float64) bool {
	stats := &e.s.stats
	for {
		if e.exact {
			fault.Hit(fault.OwnerEnum)
		}
		if !e.abl.NoIncumbentBreak {
			e.it.Limit(e.cost.ownerLimit(bound))
		}
		o, d, ok := e.it.Next()
		if !ok {
			return false
		}
		if e.cost.combine(d, 0) >= bound {
			// Ablation A1 measures what this break is worth by degrading
			// it to a per-object skip.
			stats.Prunes[trace.PruneIncumbentBreak]++
			if !e.abl.NoIncumbentBreak {
				return false
			}
			stats.CandidatesSeen++
			continue
		}
		stats.CandidatesSeen++
		e.s.pollCancel(stats.CandidatesSeen)
		mask := e.it.Mask()
		if e.cost.positionBlind() && !e.abl.NoSumDominance && e.dominated(mask) {
			stats.Prunes[trace.PruneDominated]++
			continue
		}
		own := &e.s.own
		own.pool = append(own.pool, cand{id: o.ID, loc: o.Loc, d: d, mask: mask})
		indexBits(own.bits, len(own.pool)-1, mask)
		return true
	}
}

// dominated reports whether an earlier pop — at most as far, the stream
// being ascending — covers all of mask, and admits mask to the antichain
// otherwise (of identical twins the first popped survives).
func (e *ownerEnum) dominated(mask kwds.Mask) bool {
	for _, m := range e.maximal {
		if mask&^m == 0 {
			return true
		}
	}
	kept := e.maximal[:0]
	for _, m := range e.maximal {
		if m&^mask != 0 {
			kept = append(kept, m)
		}
	}
	e.maximal = append(kept, mask)
	return false
}

// indexBits records pool index idx under every query keyword bit of mask.
func indexBits(bits [][]int32, idx int, mask kwds.Mask) {
	for b := range bits {
		if mask&(1<<uint(b)) != 0 {
			bits[b] = append(bits[b], int32(idx))
		}
	}
}

// next advances to the next candidate owner and reports whether there is
// one; bound is pop's.
func (e *ownerEnum) next(bound float64) bool {
	for e.pop(bound) {
		if e.owner().d < e.df && !e.abl.NoOwnerRing {
			// No feasible set has its query distance owner closer than the
			// farthest keyword NN; the pop stays in the pool as a potential
			// non-owner member.
			e.s.stats.Prunes[trace.PruneOwnerRing]++
			continue
		}
		e.s.stats.OwnersTried++
		return true
	}
	return false
}

// drain pops the rest of the stream into the pool without trying owners:
// the relevant content of C(q, bound) in ascending distance, for the
// searches whose owners are not the stream's prefixes.
func (e *ownerEnum) drain(bound float64) {
	for e.pop(bound) {
	}
}

// owner returns the current candidate owner.
func (e *ownerEnum) owner() cand {
	pool := e.s.own.pool
	return pool[len(pool)-1]
}

// finish closes the loop: the search phase time and the span's effort
// attributes, read off the record's counters as they stand.
func (e *ownerEnum) finish(cost float64) {
	stats := &e.s.stats
	stats.Phases.Search = time.Since(e.start)
	if e.loop != nil {
		e.loop.Attr("candidates", float64(stats.CandidatesSeen))
		e.loop.Attr("owners_tried", float64(stats.OwnersTried))
		e.loop.Attr("nodes", float64(stats.NodesExpanded))
		e.loop.Attr("sets_evaluated", float64(stats.SetsEvaluated))
		e.loop.Attr("cost", cost)
	}
	e.loop.End()
}

// bestWithOwner is the cover search: the cheapest feasible set owned by
// sc.pool's last entry with its other members drawn from sc.pool (indexed
// by sc.bits), restricted to cost < bound, or (nil, 0) when none exists.
// Every non-owner member of a minimal set must cover a keyword the owner
// lacks, so the search runs over bits of the owner's uncovered keywords,
// branching on the rarest, and carries the partial set's two components:
// D, which the owner fixes or members add to (costFn.extend), and
// maxPair. Partial sets are cut by
// the lower bound combine(D, maxPair) ≥ bound — the same geometric facts
// the paper's pairwise distance owner / lens pruning exploits — and, under
// the sum, by the completion bound: each uncovered keyword still costs at
// least its nearest candidate, the first entry of its bit list since the
// pool is ascending, so D grows by at least the largest of those.
//
// On a TopK execution (s.top set) the leaf action changes from
// keep-the-cheapest to rank-them-all: every cover reached is offered to
// the top-k heap, whose k-th best cost is the bound from then on, and
// nothing is returned.
//
// The returned set aliases sc.bestSet: callers copy (improve) what they
// keep.
func (s *search) bestWithOwner(sc *ownerScratch, bound float64) ([]dataset.ObjectID, float64) {
	qi, cost, stats, top := s.qi, s.cost, &s.stats, s.top
	pool, bits := sc.pool, sc.bits
	owner := pool[len(pool)-1]
	dof := owner.d
	need := qi.Full() &^ owner.mask

	if need == 0 {
		c := cost.combine(dof, 0)
		stats.SetsEvaluated++
		sc.bestSet = append(sc.bestSet[:0], owner.id)
		switch {
		case top != nil:
			s.offerCover(sc.bestSet)
		case c < bound:
			return sc.bestSet, c
		}
		return nil, 0
	}
	if cost.combine(dof, 0) >= bound {
		stats.Prunes[trace.PruneOwnerBound]++
		return nil, 0
	}

	var (
		bestSet  = sc.bestSet[:0]
		found    = false
		bestCost = bound // the pruning bound; bestSet's cost once found
		chosen   = sc.chosen[:0]
		sums     = cost.key == total
		// pairPrune gates the pair bound: Ablation A1's NoPairPrune
		// keeps every partial set and the full pairwise maximum.
		pairPrune = !s.Ablation.NoPairPrune
	)

	var dfs func(covered kwds.Mask, D, maxPair float64)
	dfs = func(covered kwds.Mask, D, maxPair float64) {
		s.chargeNode()
		if covered == qi.Full() {
			c := cost.combine(D, maxPair)
			stats.SetsEvaluated++
			if top == nil && c >= bestCost {
				return
			}
			bestSet = append(bestSet[:0], owner.id)
			for _, ci := range chosen {
				bestSet = append(bestSet, pool[ci].id)
			}
			if top != nil {
				s.offerCover(bestSet)
				bestCost = top.bound()
			} else {
				bestCost, found = c, true
			}
			return
		}
		// Branch on the uncovered keyword with the fewest candidates.
		branchBit, branchLen, rest := -1, math.MaxInt32, 0.0
		for b := 0; b < qi.Size(); b++ {
			if covered&(1<<uint(b)) != 0 {
				continue
			}
			n := len(bits[b])
			if n < branchLen {
				branchBit, branchLen = b, n
			}
			if sums && n > 0 && pool[bits[b][0]].d > rest {
				rest = pool[bits[b][0]].d
			}
		}
		if sums && cost.combine(D+rest, maxPair) >= bestCost {
			stats.Prunes[trace.PruneCompletionBound]++
			return
		}
		for _, ci := range bits[branchBit] {
			c := pool[ci]
			if c.mask&^covered == 0 {
				stats.Prunes[trace.PruneNoNewKeyword]++
				continue // contributes nothing new
			}
			// Incremental pairwise distance owner bound. combine is
			// monotone in P, so the walk over chosen stops at the first
			// distance that cuts the partial set: the full maximum would
			// cut it too, and a set that survives has seen every pair.
			nd := cost.extend(D, c.d)
			np := maxPair
			if d := c.loc.Dist(owner.loc); d > np {
				np = d
			}
			cut := pairPrune && cost.combine(nd, np) >= bestCost
			for i := 0; i < len(chosen) && !cut; i++ {
				if d := c.loc.Dist(pool[chosen[i]].loc); d > np {
					np = d
					cut = pairPrune && cost.combine(nd, np) >= bestCost
				}
			}
			if cut {
				stats.Prunes[trace.PrunePairBound]++
				continue
			}
			chosen = append(chosen, ci)
			dfs(covered|c.mask, nd, np)
			chosen = chosen[:len(chosen)-1]
		}
	}
	dfs(owner.mask, dof, 0)
	sc.bestSet, sc.chosen = bestSet, chosen[:0]

	if !found {
		return nil, 0
	}
	return bestSet, bestCost
}
