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
func (s *search) ownerAppro(q Query, cost CostKind) (Result, error) {
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
	s.noteIncumbent(curSet, curCost, cost)
	stats.SetsEvaluated = 1

	var pool []cand
	bitCands := make([][]int32, qi.Size())
	set := make([]dataset.ObjectID, 0, qi.Size()+1)
	bitOrder := make([]int, 0, qi.Size())

	loop := s.tr.Begin("owner_loop")
	searchStart := time.Now()
	it := s.Tree.NewRelevantNNIterator(q.Loc, qi)
	it.Limit(curCost)
	for {
		o, dof, ok := it.Next()
		if !ok {
			break
		}
		if dof >= curCost {
			stats.Prunes[trace.PruneIncumbentBreak]++
			break // cost(S) ≥ d(owner, q)
		}
		ownerMask := qi.MaskOf(o.Keywords)
		idx := int32(len(pool))
		pool = append(pool, cand{o: o, d: dof, mask: ownerMask})
		for b := 0; b < qi.Size(); b++ {
			if ownerMask&(1<<uint(b)) != 0 {
				bitCands[b] = append(bitCands[b], idx)
			}
		}
		stats.CandidatesSeen++
		s.pollCancel(stats.CandidatesSeen)
		if dof < df {
			stats.Prunes[trace.PruneOwnerRing]++
			continue // cannot be a query distance owner of a feasible set
		}
		stats.OwnersTried++

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
		need := qi.Full() &^ ownerMask
		if need == 0 {
			stats.SetsEvaluated++
			if dof < curCost {
				curSet, curCost = []dataset.ObjectID{o.ID}, combine(cost, dof, 0)
				s.noteIncumbent(curSet, curCost, cost)
			}
			continue
		}
		bitOrder = bitOrder[:0]
		for b := 0; b < qi.Size(); b++ {
			if need&(1<<uint(b)) != 0 {
				bitOrder = append(bitOrder, b)
			}
		}
		for i := 1; i < len(bitOrder); i++ {
			for j := i; j > 0 && len(bitCands[bitOrder[j]]) < len(bitCands[bitOrder[j-1]]); j-- {
				bitOrder[j], bitOrder[j-1] = bitOrder[j-1], bitOrder[j]
			}
		}
		osp := s.tr.Begin("greedy_construct")
		set = set[:0]
		feasible := true
		maxToOwner := 0.0
		for _, b := range bitOrder {
			bestIdx, bestDist := int32(-1), 0.0
			for _, ci := range bitCands[b] {
				d := pool[ci].o.Loc.Dist(o.Loc)
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
			if combine(cost, dof, maxToOwner) >= curCost {
				stats.Prunes[trace.PruneGreedyBound]++
				feasible = false
				break
			}
			set = append(set, pool[bestIdx].o.ID)
		}
		if !feasible {
			osp.Drop()
			continue
		}
		set = append(set, o.ID)
		stats.SetsEvaluated++
		if c := s.EvalCost(cost, q.Loc, set); c < curCost {
			if osp != nil {
				// Keep construction spans only for improving owners.
				osp.Attr("owner_id", float64(o.ID))
				osp.Attr("d_owner", dof)
				osp.Attr("cost", c)
				osp.End()
			}
			curSet, curCost = canonical(set), c
			s.noteIncumbent(curSet, curCost, cost)
			it.Limit(curCost)
		} else {
			osp.Drop()
		}
	}
	stats.Phases.Search = time.Since(searchStart)
	if loop != nil {
		loop.Attr("candidates", float64(stats.CandidatesSeen))
		loop.Attr("owners_tried", float64(stats.OwnersTried))
		loop.Attr("sets_evaluated", float64(stats.SetsEvaluated))
		loop.Attr("cost", curCost)
	}
	loop.End()
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: cost, Stats: stats}, nil
}
