package core

import (
	"time"

	"coskq/internal/dataset"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// ownerAppro is the distance owner-driven approximation of the
// farthest-member rows: MaxSum-Appro (ratio 1.375), Dia-Appro (ratio √3)
// and cost_α. (The other rows approximate by running their exact search
// at their ratio as slack; see cells.)
//
// It enumerates candidate owners o in ascending distance within the ring
// [d_f, curCost) and constructs one feasible set per owner from the
// owner's disk C(q, d(o,q)), keeping the cheapest: the members nearest to
// the owner (nearestCover). The iteration over owners guarantees the
// optimal solution's owner is tried, which is where the approximation
// ratio proofs bite.
//
// Implementation note (the paper's "information re-use"): because owners
// are popped in ascending distance, the owner's disk content is exactly
// the prefix of relevant objects the iterator has already produced, so the
// construction runs over an in-memory pool instead of repeated index
// searches.
func (s *search) ownerAppro(q Query, cost costFn) (Result, error) {
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := s.tr.Begin("owner_appro")
	var stats Stats
	s.trackStats(&stats)
	seed, curCost, df, _, err := s.nnSeed(q, cost, &stats)
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet := canonical(seed)
	s.noteIncumbent(curSet, curCost)
	stats.SetsEvaluated = 1

	set := make([]dataset.ObjectID, 0, qi.Size()+1)
	bitOrder := make([]int, 0, qi.Size())

	en := s.owners(q, qi, cost, df, false, &stats)
	for en.next(curCost) {
		owner := en.owner()
		if qi.Full()&^owner.mask == 0 {
			stats.SetsEvaluated++
			curSet, curCost = []dataset.ObjectID{owner.id}, cost.combine(owner.d, 0)
			s.noteIncumbent(curSet, curCost)
			continue
		}
		stepStart := s.traceClock()
		var ok bool
		set, ok = nearestCover(qi, cost, s.own.pool, s.own.bits, curCost, append(set[:0], owner.id), bitOrder, &stats)
		if !ok {
			continue
		}
		stats.SetsEvaluated++
		if c := s.src.evalSet(cost, q.Loc, set); c < curCost {
			// Construction spans exist only for improving owners.
			if osp := s.tr.BeginAt("greedy_construct", stepStart); osp != nil {
				osp.Attr("owner_id", float64(owner.id))
				osp.Attr("d_owner", owner.d)
				osp.Attr("cost", c)
				osp.End()
			}
			curSet, curCost = canonical(set), c
			s.noteIncumbent(curSet, curCost)
		}
	}
	en.finish(curCost)
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Stats: stats}, nil
}

// nearestCover is the 2013 paper's construction around the owner, pool's
// last entry: for each keyword the owner lacks, append to set the owner's
// nearest pool object covering it. Every chosen member is at most
// maxPair(S_opt) from the optimal owner when the owner is that owner,
// which is what the 1.375 / √3 ratio proofs use. It reports false when
// some keyword is not coverable from the pool or the construction cannot
// beat curCost. bitOrder is scratch.
//
// Keywords are processed in ascending candidate-count order and each
// per-keyword minimum lower-bounds the final pairwise component, so
// hopeless owners are abandoned after scanning only the rarest keyword's
// short list.
func nearestCover(qi *kwds.QueryIndex, cost costFn, pool []cand, bits [][]int32, curCost float64, set []dataset.ObjectID, bitOrder []int, stats *Stats) ([]dataset.ObjectID, bool) {
	owner := pool[len(pool)-1]
	need := qi.Full() &^ owner.mask
	bitOrder = bitOrder[:0]
	for b := 0; b < qi.Size(); b++ {
		if need&(1<<uint(b)) != 0 {
			bitOrder = append(bitOrder, b)
		}
	}
	for i := 1; i < len(bitOrder); i++ {
		for j := i; j > 0 && len(bits[bitOrder[j]]) < len(bits[bitOrder[j-1]]); j-- {
			bitOrder[j], bitOrder[j-1] = bitOrder[j-1], bitOrder[j]
		}
	}
	maxToOwner := 0.0
	for _, b := range bitOrder {
		bestIdx, bestDist := int32(-1), 0.0
		for _, ci := range bits[b] {
			d := pool[ci].loc.Dist(owner.loc)
			if bestIdx < 0 || d < bestDist {
				bestIdx, bestDist = ci, d
			}
		}
		if bestIdx < 0 {
			return set, false // this keyword is not coverable in the pool
		}
		if bestDist > maxToOwner {
			maxToOwner = bestDist
		}
		// maxToOwner lower-bounds the final pairwise component.
		if cost.combine(owner.d, maxToOwner) >= curCost {
			stats.Prunes[trace.PruneGreedyBound]++
			return set, false
		}
		set = append(set, pool[bestIdx].id)
	}
	return set, true
}
