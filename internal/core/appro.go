package core

import (
	"time"

	"coskq/internal/dataset"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// ownerAppro is the distance owner-driven approximation algorithm of the
// paper (MaxSum-Appro for cost == MaxSum with ratio 1.375, Dia-Appro for
// cost == Dia with ratio √3).
//
// It enumerates candidate query distance owners o in ascending distance
// within the ring [d_f, curCost) and constructs one feasible set per
// owner: starting from {o}, it repeatedly adds the object nearest to o —
// among objects inside the owner's disk C(q, d(o,q)) — that covers at
// least one still-uncovered keyword. Keeping every added member close to
// the owner bounds the pairwise distance owner component; the iteration
// over owners guarantees the optimal solution's owner is tried, which is
// where the approximation ratio proof bites.
//
// Implementation note (the paper's "information re-use"): because owners
// are popped in ascending distance, the owner's disk content is exactly
// the prefix of relevant objects the iterator has already produced, so the
// greedy runs over an in-memory pool instead of repeated index searches.
func (s *search) ownerAppro(q Query, cost costFn) (Result, error) {
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := s.tr.Begin("owner_appro")
	var stats Stats
	s.trackStats(&stats)
	seed, curCost, df, err := s.nnSeed(q, cost, &stats)
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet := canonical(seed)
	s.noteIncumbent(curSet, curCost, cost.kind)
	stats.SetsEvaluated = 1

	set := make([]dataset.ObjectID, 0, qi.Size()+1)
	bitOrder := make([]int, 0, qi.Size())

	en := s.owners(q, qi, cost, df, false, &stats)
	defer en.release()
	for en.next(curCost, curCost) {
		// Construction around this owner (the 2013 paper's recipe): for
		// each keyword the owner lacks, take the owner's nearest pool
		// object covering it. Every chosen member is at most
		// maxPair(S_opt) from the optimal owner when o is that owner,
		// which is what the 1.375 / √3 ratio proofs use.
		//
		// Keywords are processed in ascending candidate-count order and
		// each per-keyword minimum lower-bounds the final pairwise
		// component, so hopeless owners are abandoned after scanning only
		// the rarest keyword's short list.
		owner := en.owner()
		o, dof := owner.o, owner.d
		need := qi.Full() &^ owner.mask
		if need == 0 {
			stats.SetsEvaluated++
			curSet, curCost = []dataset.ObjectID{o.ID}, cost.combine(dof, 0)
			s.noteIncumbent(curSet, curCost, cost.kind)
			continue
		}
		bitOrder = bitOrder[:0]
		for b := 0; b < qi.Size(); b++ {
			if need&(1<<uint(b)) != 0 {
				bitOrder = append(bitOrder, b)
			}
		}
		for i := 1; i < len(bitOrder); i++ {
			for j := i; j > 0 && len(en.bits[bitOrder[j]]) < len(en.bits[bitOrder[j-1]]); j-- {
				bitOrder[j], bitOrder[j-1] = bitOrder[j-1], bitOrder[j]
			}
		}
		osp := s.tr.Begin("greedy_construct")
		set = set[:0]
		feasible := true
		maxToOwner := 0.0
		for _, b := range bitOrder {
			bestIdx, bestDist := int32(-1), 0.0
			for _, ci := range en.bits[b] {
				d := en.pool[ci].o.Loc.Dist(o.Loc)
				if bestIdx < 0 || d < bestDist {
					bestIdx, bestDist = ci, d
				}
			}
			if bestIdx < 0 {
				feasible = false // this keyword is not coverable in the disk
				break
			}
			if bestDist > maxToOwner {
				maxToOwner = bestDist
			}
			// maxToOwner lower-bounds the final pairwise component.
			if cost.combine(dof, maxToOwner) >= curCost {
				stats.Prunes[trace.PruneGreedyBound]++
				feasible = false
				break
			}
			set = append(set, en.pool[bestIdx].o.ID)
		}
		if !feasible {
			osp.Drop()
			continue
		}
		set = append(set, o.ID)
		stats.SetsEvaluated++
		if c := s.evalSet(cost, q.Loc, set); c < curCost {
			if osp != nil {
				// Keep construction spans only for improving owners.
				osp.Attr("owner_id", float64(o.ID))
				osp.Attr("d_owner", dof)
				osp.Attr("cost", c)
				osp.End()
			}
			curSet, curCost = canonical(set), c
			s.noteIncumbent(curSet, curCost, cost.kind)
		} else {
			osp.Drop()
		}
	}
	en.finish(curCost)
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: cost.kind, Stats: stats}, nil
}
