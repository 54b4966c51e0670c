package core

import (
	"math"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// combine composes the two distance components — the query distance owner
// distance and the pairwise distance owner distance — into the cost value.
// Both MaxSum and Dia are monotone in each component, which is what makes
// the partial-set lower bounds of the owner-driven search valid.
func combine(cost CostKind, ownerDist, maxPair float64) float64 {
	if cost == Dia {
		return math.Max(ownerDist, maxPair)
	}
	return ownerDist + maxPair
}

// cand is one relevant object materialized by the ascending-distance
// iterator: the candidate pool of the owner-driven search.
type cand struct {
	o    *dataset.Object
	d    float64   // d(o, q)
	mask kwds.Mask // query keywords covered by o
}

// ownerExact is the distance owner-driven exact algorithm of the paper
// (MaxSum-Exact for cost == MaxSum, Dia-Exact for cost == Dia).
//
// It enumerates candidate query distance owners o_f — relevant objects in
// the ring d(o_f, q) ∈ [d_f, curCost) in ascending distance — and, for
// each, finds the cheapest feasible set having o_f as its query distance
// owner. All other members of such a set lie in the disk C(q, d(o_f, q)),
// which is exactly the pool of objects the iterator has already produced;
// the inner search is a keyword-ordered cover enumeration whose partial
// sets are pruned with the owner lower bound
// combine(d(o_f,q), maxPair(partial)) ≥ curCost — the same geometric facts
// the paper's pairwise distance owner / lens pruning exploits.
func (s *search) ownerExact(q Query, cost CostKind) (res Result, err error) {
	if s.workers > 1 {
		return s.ownerExactPar(q, cost)
	}
	defer recoverBudget(&err)
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := s.tr.Begin("owner_exact")
	var stats Stats
	stats.Workers = 1
	s.trackStats(&stats)
	seed, curCost, df, err := s.nnSeed(q, cost, &stats)
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet := canonical(seed)
	s.noteIncumbent(curSet, curCost, cost)
	stats.SetsEvaluated = 1

	// bound prunes owners (the dof ≥ bound break) and partial sets
	// (bestWithOwner). It starts at the incumbent cost, except that a
	// grouped batch may pre-tighten it one ulp above a warm-start upper
	// bound (a finished neighbor's answer cost, feasible for this query
	// too — batchgroup.go). The warm bound is used ONLY for pruning, never
	// as an answer: any owner achieving the true optimum C has
	// d(o,q) ≤ C ≤ warm < bound, so it is neither skipped nor cut from the
	// pool, and bestWithOwner's strict acceptance (c < bound) still finds
	// its DFS-first C-cost leaf — the same answer the cold run keeps
	// (DESIGN.md §15). The IR-tree iterator is limited by curCost, a real
	// incumbent's cost, never by bound: a warm bound can sit within one ulp
	// of the optimal owner's distance, closer than Rect.MinDist and
	// Point.Dist agree (irtree.RelevantNNIterator.Limit).
	bound := curCost
	if wb := s.warmBound; wb > 0 && wb < bound {
		bound = math.Nextafter(wb, math.Inf(1))
	}

	// pool holds every relevant object popped so far, ascending by d(·,q);
	// bitCands[b] indexes the pool entries covering query keyword bit b.
	// Both recycle through the scratch pool across queries.
	scratch := getOwnerScratch()
	pool, bitCands := scratch.pool[:0], scratch.ensureBits(qi.Size())
	defer func() {
		scratch.pool = pool
		putOwnerScratch(scratch)
	}()

	loop := s.tr.Begin("owner_loop")
	searchStart := time.Now()
	it := s.Tree.NewRelevantNNIterator(q.Loc, qi)
	if !s.Ablation.NoIncumbentBreak {
		it.Limit(curCost)
	}
	for {
		fault.Hit(fault.OwnerEnum)
		o, dof, ok := it.Next()
		if !ok {
			break
		}
		if dof >= bound {
			// cost(S) ≥ d(owner, q) for any S containing an object this
			// far, so the enumeration can stop (ablation A1 measures what
			// this break is worth by degrading it to a per-owner skip).
			stats.Prunes[trace.PruneIncumbentBreak]++
			if !s.Ablation.NoIncumbentBreak {
				break
			}
			stats.CandidatesSeen++
			continue
		}
		mask := qi.MaskOf(o.Keywords)
		idx := int32(len(pool))
		pool = append(pool, cand{o: o, d: dof, mask: mask})
		for b := 0; b < qi.Size(); b++ {
			if mask&(1<<uint(b)) != 0 {
				bitCands[b] = append(bitCands[b], idx)
			}
		}
		stats.CandidatesSeen++
		s.pollCancel(stats.CandidatesSeen)

		if dof < df && !s.Ablation.NoOwnerRing {
			// No feasible set has its query distance owner closer than the
			// farthest keyword NN; o still enters the pool as a potential
			// non-owner member.
			stats.Prunes[trace.PruneOwnerRing]++
			continue
		}
		stats.OwnersTried++
		osp := s.tr.Begin("best_with_owner")
		nodes0 := stats.NodesExpanded
		set, c := s.bestWithOwner(qi, cost, pool, bitCands, int(idx), bound, scratch, &stats)
		improved := set != nil
		if osp != nil {
			// Keep sub-search spans only for owners that improved the
			// incumbent — the iterations that explain the answer — and
			// fold the rest back into the loop span's aggregates.
			if improved {
				osp.Attr("owner_id", float64(o.ID))
				osp.Attr("d_owner", dof)
				osp.Attr("nodes", float64(stats.NodesExpanded-nodes0))
				osp.Attr("cost", c)
				osp.End()
			} else {
				osp.Drop()
			}
		}
		if improved {
			curSet, curCost = canonical(set), c
			bound = c
			s.noteIncumbent(curSet, curCost, cost)
			if !s.Ablation.NoIncumbentBreak {
				it.Limit(curCost)
			}
		}
	}
	stats.Phases.Search = time.Since(searchStart)
	if loop != nil {
		loop.Attr("candidates", float64(stats.CandidatesSeen))
		loop.Attr("owners_tried", float64(stats.OwnersTried))
		loop.Attr("nodes", float64(stats.NodesExpanded))
		loop.Attr("sets_evaluated", float64(stats.SetsEvaluated))
		loop.Attr("cost", curCost)
	}
	loop.End()
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: cost, Stats: stats}, nil
}

// bestWithOwner finds the cheapest feasible set whose query distance owner
// is pool[ownerIdx], restricted to cost < bound, or (nil, 0) when none
// exists. Every candidate member is a pool entry (d ≤ owner distance), and
// every non-owner member of a minimal set must cover a keyword the owner
// lacks, so the search runs over bitCands of the owner's uncovered bits.
//
// The returned set aliases scratch.bestSet: callers copy (canonical) what
// they keep. Inside a parallel search (s.shared non-nil) the enumeration
// additionally tightens its bound from the shared incumbent, one ulp
// above it so equal-cost earlier-owner answers survive (parallel.go).
func (s *search) bestWithOwner(qi *kwds.QueryIndex, cost CostKind, pool []cand, bitCands [][]int32, ownerIdx int, bound float64, scratch *ownerScratch, stats *Stats) ([]dataset.ObjectID, float64) {
	owner := pool[ownerIdx]
	dof := owner.d
	need := qi.Full() &^ owner.mask

	if need == 0 {
		c := combine(cost, dof, 0)
		stats.SetsEvaluated++
		if c < bound {
			scratch.bestSet = append(scratch.bestSet[:0], owner.o.ID)
			return scratch.bestSet, c
		}
		return nil, 0
	}
	if combine(cost, dof, 0) >= bound {
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
			c := combine(cost, dof, maxPair)
			stats.SetsEvaluated++
			if c < bestCost {
				bestCost = c
				found, foundCost = true, c
				bestSet = bestSet[:0]
				bestSet = append(bestSet, owner.o.ID)
				for _, ci := range chosen {
					bestSet = append(bestSet, pool[ci].o.ID)
				}
			}
			return
		}
		// Branch on the uncovered keyword with the fewest candidates.
		branchBit, branchLen := -1, math.MaxInt32
		for b := 0; b < qi.Size(); b++ {
			if covered&(1<<uint(b)) != 0 {
				continue
			}
			if n := len(bitCands[b]); n < branchLen {
				branchBit, branchLen = b, n
			}
		}
		for _, ci := range bitCands[branchBit] {
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
			if combine(cost, dof, np) >= bestCost && !s.Ablation.NoPairPrune {
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
