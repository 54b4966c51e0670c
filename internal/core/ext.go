package core

// The nearest-member row of the cost table (MinMax: min owner distance +
// pairwise distance owner). Its owner is the member *nearest* to the
// query, so an owner's other members are not the prefix of the ascending
// stream but a slice of its suffix; the loop below reads them off the
// same enumerator, drained once, and hands each owner's pool to the
// shared cover search (bestWithOwner). The sum rows need no file: they
// are ownerExact under their cost value.

import (
	"time"

	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// nearestOwner solves a nearest-member cost, exactly at slack 1 and
// within ratio slack otherwise: as in ownerExact, the drain, the owner
// break, the pool filter and the cover search's bound all read
// curCost/slack (OwnerAppro runs it at its ratio, 2; see cells).
//
// Every member x of a set cheaper than the incumbent lies in
// C(q, curCost), since d(x,q) ≤ d(o,q) + d(x,o) for its owner o, so one
// drain of the stream to the incumbent materializes all of them. Owner i's
// other members are then later entries (they are at least as far from q)
// that add a keyword and sit close enough to the owner for the pair of
// them to beat the incumbent.
func (s *search) nearestOwner(q Query, cost costFn, slack float64) (Result, error) {
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := s.tr.Begin("nearest_owner")
	if slack != 1 {
		algo.Attr("epsilon", slack-1)
	}
	var stats Stats
	s.trackStats(&stats)
	seed, curCost, _, _, err := s.nnSeed(q, cost, &stats)
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet := canonical(seed)
	s.noteIncumbent(curSet, curCost)
	stats.SetsEvaluated = 1

	en := s.owners(q, qi, cost, 0, true, &stats)
	en.drain(curCost / slack)
	// The owner's pool: the search's second scratch, the owner appended
	// as its last entry (where bestWithOwner looks for it) and left out
	// of the bit index.
	sub := &s.sub
	for i, owner := range s.own.pool {
		bound := curCost / slack
		if cost.combine(owner.d, 0) >= bound {
			stats.Prunes[trace.PruneIncumbentBreak]++
			break // every later owner is at least as far
		}
		stats.OwnersTried++
		s.pollCancel(stats.OwnersTried)
		pool, bits := sub.pool[:0], sub.ensureBits(qi.Size())
		for _, c := range s.own.pool[i+1:] {
			if c.mask&^owner.mask == 0 || cost.combine(owner.d, c.loc.Dist(owner.loc)) >= bound {
				continue
			}
			pool = append(pool, c)
			indexBits(bits, len(pool)-1, c.mask)
		}
		pool = append(pool, owner)
		sub.pool = pool

		if found, c := s.bestWithOwner(qi, cost, sub, bound, &stats, nil); found != nil {
			curSet, curCost = canonical(found), c
			s.noteIncumbent(curSet, curCost)
		}
	}
	en.finish(curCost)
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Stats: stats}, nil
}
