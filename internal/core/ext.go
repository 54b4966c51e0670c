package core

// The nearest-member row of the cost table (MinMax: min owner distance +
// pairwise distance owner). Its owner is the member *nearest* to the
// query, so an owner's other members are not the prefix of the ascending
// stream but a slice of its suffix; the loop below reads them off the
// same enumerator, drained once, and hands each owner's pool to the
// shared cover search (bestWithOwner). The sum rows need no file: they
// are ownerExact under their cost value.

import "coskq/internal/trace"

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
	if err := s.open(q, cost, "nearest_owner", true); err != nil {
		return Result{}, err
	}
	if slack != 1 {
		s.algo.Attr("epsilon", slack-1)
	}
	en := s.owners(0, true)
	en.drain(s.incCost / slack)
	// The owner's pool: the search's second scratch, the owner appended
	// as its last entry (where bestWithOwner looks for it) and left out
	// of the bit index.
	sub := &s.sub
	for i, owner := range s.own.pool {
		bound := s.incCost / slack
		if cost.combine(owner.d, 0) >= bound {
			s.stats.Prunes[trace.PruneIncumbentBreak]++
			break // every later owner is at least as far
		}
		s.stats.OwnersTried++
		s.pollCancel(s.stats.OwnersTried)
		pool, bits := sub.pool[:0], sub.ensureBits(s.qi.Size())
		for _, c := range s.own.pool[i+1:] {
			if c.mask&^owner.mask == 0 || cost.combine(owner.d, c.loc.Dist(owner.loc)) >= bound {
				continue
			}
			pool = append(pool, c)
			indexBits(bits, len(pool)-1, c.mask)
		}
		pool = append(pool, owner)
		sub.pool = pool

		if found, c := s.bestWithOwner(sub, bound); found != nil {
			s.improve(found, c)
		}
	}
	en.finish(s.incCost)
	return s.result()
}
