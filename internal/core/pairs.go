package core

// This file implements the published pseudocode form of the distance
// owner-driven exact algorithm: enumerate candidate *pairwise distance
// owner* pairs first, then candidate query distance owners, then the best
// feasible set per triple (Algorithm 1/2 of the paper's presentation, with
// the lower/upper bound tables instantiated for MaxSum and Dia).
//
// ownerExact (exact.go) reorganizes the same search around the query
// distance owner with an incremental candidate pool, which is usually
// faster; this literal variant is kept as an independently-derived exact
// implementation — the two agreeing on every query (see TestPairsExact*)
// is a strong correctness check — and to mirror the paper's structure.

import (
	"cmp"
	"math"
	"slices"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// pairsExact is the pair-owners-first exact search for MaxSum and Dia.
func (s *search) pairsExact(q Query, cost costFn) (Result, error) {
	if err := s.open(q, cost, "pairs_exact", true); err != nil {
		return Result{}, err
	}
	stats, df := &s.stats, s.df
	stats.Phases.Seed = time.Since(s.start)

	// Step 0: all relevant objects in R_S = C(q, r1); r1 = curCost for
	// both costs (any member farther than the incumbent cost disqualifies
	// its set) — the candidate stream drained to the incumbent, which is
	// this span's whole content.
	matSp := s.tr.Begin("materialize")
	en := s.ownerStream(df, false)
	en.drain(s.incCost)
	cands := s.own.pool
	stats.Phases.Materialize = time.Since(en.start)
	if matSp != nil {
		matSp.Attr("candidates", float64(stats.CandidatesSeen))
	}
	matSp.End()

	// Step 1: candidate pairwise distance owner pairs (i == j covers
	// singleton and co-located answers), filtered by the d_LB/d_UB bounds
	// and ordered by the pair cost lower bound.
	searchSp := s.tr.Begin("pair_search")
	searchStart := time.Now()
	type pairCand struct {
		i, j   int
		dij    float64
		costLB float64
	}
	var pairs []pairCand
	for i := range cands {
		for j := i; j < len(cands); j++ {
			dij := cands[i].loc.Dist(cands[j].loc)
			maxDq := math.Max(cands[i].d, cands[j].d)
			minDq := math.Min(cands[i].d, cands[j].d)
			var dUB, costLB float64
			if cost.kind == Dia {
				dUB = s.incCost
				costLB = math.Max(math.Max(dij, maxDq), df)
			} else {
				dUB = s.incCost - df
				costLB = dij + math.Max(maxDq, df)
			}
			if dij >= dUB {
				stats.Prunes[trace.PrunePairBound]++
				continue
			}
			// d_LB from the triangle inequality. Collinear with q, the two
			// sides are equal in the reals; the one-sided slack (as in
			// geo.Circle.ContainsPoint) keeps rounding from pruning them.
			if dij < (df-minDq)*(1-1e-12) {
				stats.Prunes[trace.PrunePairBound]++
				continue
			}
			if costLB >= s.incCost {
				stats.Prunes[trace.PrunePairBound]++
				continue
			}
			pairs = append(pairs, pairCand{i: i, j: j, dij: dij, costLB: costLB})
		}
	}
	slices.SortFunc(pairs, func(a, b pairCand) int {
		return cmp.Or(cmp.Compare(a.costLB, b.costLB), cmp.Compare(a.i, b.i), cmp.Compare(a.j, b.j))
	})

	for _, p := range pairs {
		if p.costLB >= s.incCost {
			stats.Prunes[trace.PruneIncumbentBreak]++
			break // ascending order: nothing later can improve
		}
		oi, oj := &cands[p.i], &cands[p.j]

		// Step 2: candidate query distance owners o_m in
		// R_ij = C(oi, dij) ∩ C(oj, dij), with the r_LB/r_UB bounds. For
		// both costs the owner is the farthest member, so it is at least
		// as far as either pair owner and at least d_f; note that a
		// Dia-optimal set's owner CAN be closer to q than the pair
		// diameter d(oi,oj), so no dij term belongs in r_LB.
		rLB := math.Max(math.Max(oi.d, oj.d), df)
		var rUB float64
		if cost.kind == Dia {
			rUB = s.incCost
		} else {
			rUB = s.incCost - p.dij
		}
		for m := range cands {
			om := &cands[m]
			s.chargeNode()
			if om.d < rLB || om.d >= rUB {
				continue
			}
			if !geo.Lens(oi.loc, oj.loc, p.dij, om.loc) {
				continue
			}
			stats.OwnersTried++
			if set, c := s.bestFeasibleForTriple(cands, p.i, p.j, m, p.dij); set != nil {
				s.improve(set, c)
			}
		}
	}
	stats.Phases.Search = time.Since(searchStart)
	if searchSp != nil {
		searchSp.Attr("pairs", float64(len(pairs)))
		searchSp.Attr("owners_tried", float64(stats.OwnersTried))
		searchSp.Attr("sets_evaluated", float64(stats.SetsEvaluated))
		searchSp.Attr("cost", s.incCost)
	}
	searchSp.End()
	return s.result()
}

// bestFeasibleForTriple finds the cheapest feasible set containing the
// triple (oi, oj, om), with the remaining members drawn from the region
// R = C(oi, dij) ∩ C(oj, dij) ∩ C(q, d(om, q)) (the paper's
// findBestFeasibleSet). Returns (nil, 0) when none beats the incumbent.
func (s *search) bestFeasibleForTriple(cands []cand, i, j, m int, dij float64) ([]dataset.ObjectID, float64) {
	q, qi, cost, stats, bound := s.q, s.qi, s.cost, &s.stats, s.incCost
	oi, oj, om := &cands[i], &cands[j], &cands[m]
	base := []dataset.ObjectID{oi.id, oj.id, om.id}
	covered := oi.mask | oj.mask | om.mask
	if covered == qi.Full() {
		stats.SetsEvaluated++
		c := s.src.evalSet(cost, q.Loc, base)
		if c < bound {
			return base, c
		}
		return nil, 0
	}

	// Region candidates for the uncovered keywords.
	region := s.own.region[:0]
	for r := range cands {
		c := &cands[r]
		if c.mask&^covered == 0 {
			continue
		}
		if c.d > om.d { // om must stay the query distance owner
			continue
		}
		if !geo.Lens(oi.loc, oj.loc, dij, c.loc) {
			continue
		}
		region = append(region, r)
	}

	var (
		bestSet  []dataset.ObjectID
		bestCost = bound
		chosen   = s.own.ichosen[:0]
	)
	var dfs func(cov kwds.Mask)
	dfs = func(cov kwds.Mask) {
		s.chargeNode()
		if cov == qi.Full() {
			set := append(append([]dataset.ObjectID(nil), base...), make([]dataset.ObjectID, 0, len(chosen))...)
			for _, r := range chosen {
				set = append(set, cands[r].id)
			}
			stats.SetsEvaluated++
			if c := s.src.evalSet(cost, q.Loc, canonical(set)); c < bestCost {
				bestCost = c
				bestSet = canonical(set)
			}
			return
		}
		var branch kwds.Mask
		for b := 0; b < qi.Size(); b++ {
			if cov&(1<<uint(b)) == 0 {
				branch = 1 << uint(b)
				break
			}
		}
		for _, r := range region {
			c := &cands[r]
			if c.mask&branch == 0 || c.mask&^cov == 0 {
				continue
			}
			chosen = append(chosen, r)
			dfs(cov | c.mask)
			chosen = chosen[:len(chosen)-1]
		}
	}
	dfs(covered)
	s.own.region, s.own.ichosen = region, chosen[:0]

	if bestSet == nil {
		return nil, 0
	}
	return bestSet, bestCost
}
