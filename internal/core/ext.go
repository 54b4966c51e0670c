package core

// The nearest-member row of the cost table (MinMax: min owner distance +
// pairwise distance owner). Its owner is the member *nearest* to the
// query, so an owner's other members are not the prefix of the ascending
// stream but a slice of its suffix; the loop below reads them off the
// same enumerator, drained once, and hands each owner's pool to the
// shared per-owner steps (bestWithOwner, nearestCover). The sum rows need
// no file: they are ownerExact / ownerAppro under their cost value.

import (
	"time"

	"coskq/internal/dataset"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// nearestOwner solves a nearest-member cost, exactly or — with the
// nearest-per-keyword construction in place of the cover search — within
// ratio 2: at the optimum's nearest member every constructed member is at
// most maxPair(S_opt) from the owner, so the set's pairwise component is
// at most twice the optimum's and its query component no larger.
//
// Every member x of a set cheaper than the incumbent lies in
// C(q, curCost), since d(x,q) ≤ d(o,q) + d(x,o) for its owner o, so one
// drain of the stream to the incumbent materializes all of them. Owner i's
// other members are then later entries (they are at least as far from q)
// that add a keyword and sit close enough to the owner for the pair of
// them to beat the incumbent.
func (s *search) nearestOwner(q Query, cost costFn, exact bool) (Result, error) {
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := s.tr.Begin("nearest_owner")
	var stats Stats
	s.trackStats(&stats)
	seed, curCost, _, err := s.nnSeed(q, cost, &stats)
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet := canonical(seed)
	s.noteIncumbent(curSet, curCost, cost.kind)
	stats.SetsEvaluated = 1

	en := s.owners(q, qi, cost, 0, exact, &stats)
	defer en.release()
	en.drain(curCost)
	// The owner's pool: a second scratch, the owner appended as its last
	// entry (where the per-owner steps look for it) and left out of the
	// bit index.
	sub := getOwnerScratch()
	defer putOwnerScratch(sub)
	set := make([]dataset.ObjectID, 0, qi.Size()+1)
	bitOrder := make([]int, 0, qi.Size())
	for i, owner := range en.pool {
		if cost.combine(owner.d, 0) >= curCost {
			stats.Prunes[trace.PruneIncumbentBreak]++
			break // every later owner is at least as far
		}
		stats.OwnersTried++
		s.pollCancel(stats.OwnersTried)
		pool, bits := sub.pool[:0], sub.ensureBits(qi.Size())
		for _, c := range en.pool[i+1:] {
			if c.mask&^owner.mask == 0 || cost.combine(owner.d, c.o.Loc.Dist(owner.o.Loc)) >= curCost {
				continue
			}
			pool = append(pool, c)
			indexBits(bits, len(pool)-1, c.mask)
		}
		pool = append(pool, owner)
		sub.pool = pool

		var (
			found []dataset.ObjectID
			c     float64
		)
		if exact {
			found, c = s.bestWithOwner(qi, cost, pool, bits, curCost, sub, &stats, nil)
		} else if cover, ok := nearestCover(qi, cost, pool, bits, curCost, append(set[:0], owner.o.ID), bitOrder, &stats); ok {
			stats.SetsEvaluated++
			found, c = cover, s.evalSet(cost, q.Loc, cover)
		}
		if found != nil && c < curCost {
			curSet, curCost = canonical(found), c
			s.noteIncumbent(curSet, curCost, cost.kind)
		}
	}
	en.finish(curCost)
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: cost.kind, Stats: stats}, nil
}
