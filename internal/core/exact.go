package core

import (
	"time"

	"coskq/internal/kwds"
)

// ownerExact is the distance owner-driven exact algorithm of the paper
// (MaxSum-Exact, Dia-Exact, the cost_α exact search of alpha.go) and,
// under the sum rows of the cost table, the exact Sum and SumMax search:
// their owner is the farthest member too, and the cover search carries
// the growing sum (bestWithOwner).
//
// It enumerates candidate query distance owners o_f — relevant objects in
// the ring d(o_f, q) ∈ [d_f, curCost) in ascending distance (ownerEnum) —
// and, for each, finds the cheapest feasible set having o_f as its query
// distance owner. All other members of such a set lie in the disk
// C(q, d(o_f, q)), which is exactly the pool of objects the enumerator
// has already produced; the per-owner step is the cover search
// (bestWithOwner).
func (s *search) ownerExact(q Query, cost costFn) (Result, error) {
	if s.workers > 1 {
		return s.ownerExactPar(q, cost)
	}
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
	s.noteIncumbent(curSet, curCost, cost.kind)
	stats.SetsEvaluated = 1

	en := s.owners(q, qi, cost, df, true, &stats)
	defer en.release()
	for en.next(curCost) {
		osp := s.tr.Begin("best_with_owner")
		nodes0 := stats.NodesExpanded
		set, c := s.bestWithOwner(qi, cost, en.pool, en.bits, curCost, en.scratch, &stats, nil)
		if set == nil {
			// Keep sub-search spans only for owners that improved the
			// incumbent — the iterations that explain the answer — and
			// fold the rest back into the loop span's aggregates.
			osp.Drop()
			continue
		}
		if osp != nil {
			o := en.owner()
			osp.Attr("owner_id", float64(o.o.ID))
			osp.Attr("d_owner", o.d)
			osp.Attr("nodes", float64(stats.NodesExpanded-nodes0))
			osp.Attr("cost", c)
		}
		osp.End()
		curSet, curCost = canonical(set), c
		s.noteIncumbent(curSet, curCost, cost.kind)
	}
	en.finish(curCost)
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: cost.kind, Stats: stats}, nil
}
