package core

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
//
// slack is 1+ε: the ring break and the cover search's bound are
// curCost/slack, so every set pruned or rejected costs at least the final
// cost over slack, and the answer is within slack of the optimum. At 1
// the division is exact and so is the search; OwnerAppro under the sum
// rows runs it at its ratio, H_{|q.ψ|} (cells).
func (s *search) ownerExact(q Query, cost costFn, slack float64) (Result, error) {
	if err := s.open(q, cost, "owner_exact", true); err != nil {
		return Result{}, err
	}
	if slack != 1 {
		s.algo.Attr("epsilon", slack-1)
	}
	en := s.owners(s.df, true)
	for en.next(s.incCost / slack) {
		stepStart := s.traceClock()
		nodes0 := s.stats.NodesExpanded
		set, c := s.bestWithOwner(&s.own, s.incCost/slack)
		if set == nil {
			continue
		}
		// Sub-search spans exist only for owners that improved the
		// incumbent — the iterations that explain the answer; the rest
		// fold into the loop span's aggregates.
		if osp := s.tr.BeginAt("best_with_owner", stepStart); osp != nil {
			o := en.owner()
			osp.Attr("owner_id", float64(o.id))
			osp.Attr("d_owner", o.d)
			osp.Attr("nodes", float64(s.stats.NodesExpanded-nodes0))
			osp.Attr("cost", c)
			osp.End()
		}
		s.improve(set, c)
	}
	en.finish(s.incCost)
	return s.result()
}
