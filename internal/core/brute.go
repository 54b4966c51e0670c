package core

import (
	"time"

	"coskq/internal/dataset"
	"coskq/internal/kwds"
)

// bruteForce exhaustively enumerates minimal covers of the query keywords
// over all relevant objects and returns the cheapest one. It uses no index
// and no geometric pruning — the relevant objects come from a scan of the
// source in identity order (source.scan) — so it shares nothing with the
// algorithms it is the oracle for, and it is exponential in |q.ψ|. The
// cost may carry an α (alpha.go).
//
// The farthest-member and sum rows are monotone under supersets, so some
// optimal solution is a minimal cover. A nearest-member row (MinMax) is
// not: adding one extra relevant object near q (an "anchor") can lower the
// min-distance component by more than it raises the pairwise component, so
// for it the oracle also tries every cover ∪ {anchor} combination. With the
// anchor fixed as the nearest member, removing any redundant other member
// never increases the cost, so one anchor per minimal cover suffices.
func (s *search) bruteForce(q Query, cost costFn) (Result, error) {
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)

	type rc struct {
		id   dataset.ObjectID
		mask kwds.Mask
	}
	var (
		cands []rc
		union kwds.Mask
	)
	s.src.scan(qi, func(id dataset.ObjectID, m kwds.Mask) {
		cands = append(cands, rc{id: id, mask: m})
		union |= m
	})
	if union != qi.Full() {
		return Result{}, ErrInfeasible
	}

	stats := Stats{CandidatesSeen: len(cands)}
	var (
		bestSet  []dataset.ObjectID
		bestCost float64
		found    bool
		chosen   []dataset.ObjectID
	)
	consider := func(set []dataset.ObjectID) {
		stats.SetsEvaluated++
		c := s.src.evalSet(cost, q.Loc, set)
		if !found || c < bestCost {
			found = true
			bestCost = c
			bestSet = canonical(set)
		}
	}
	var dfs func(covered kwds.Mask)
	dfs = func(covered kwds.Mask) {
		s.chargeNode(&stats)
		if covered == qi.Full() {
			consider(chosen)
			if cost.key == nearest {
				for _, a := range cands {
					already := false
					for _, id := range chosen {
						if id == a.id {
							already = true
							break
						}
					}
					if !already {
						consider(append(append([]dataset.ObjectID(nil), chosen...), a.id))
					}
				}
			}
			return
		}
		// Branch on the lowest uncovered bit.
		var branch kwds.Mask
		for b := 0; b < qi.Size(); b++ {
			if covered&(1<<uint(b)) == 0 {
				branch = 1 << uint(b)
				break
			}
		}
		for _, c := range cands {
			if c.mask&branch == 0 || c.mask&^covered == 0 {
				continue
			}
			chosen = append(chosen, c.id)
			dfs(covered | c.mask)
			chosen = chosen[:len(chosen)-1]
		}
	}
	dfs(0)

	stats.Elapsed = time.Since(start)
	return Result{Set: bestSet, Cost: bestCost, Stats: stats}, nil
}
