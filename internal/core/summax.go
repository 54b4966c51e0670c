package core

// SumMax extension: cost_SumMax(S) = Σ_{o∈S} d(o,q) + max_{o1,o2∈S} d(o1,o2).
// Cao et al. proposed this cost but left algorithms as future work; the
// owner-driven skeleton covers it too. The cost is monotone under
// supersets (both components only grow), so optima are minimal covers.
//
//   - sumMaxExact: pruned cover enumeration over the disk C(q, bound)
//     with lower bound partialSum + maxPair(partial) + completion.
//   - sumMaxAppro: the owner-driven approximation — for each candidate
//     farthest member o (ascending distance in the ring [d_f, bound)),
//     run the weighted-set-cover greedy restricted to the owner's disk;
//     at the optimal solution's owner this yields the H_{|q.ψ|} ratio.

import (
	"math"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// sumMaxExact finds the optimal SumMax set.
func (s *search) sumMaxExact(q Query) (Result, error) {
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)

	algo := s.tr.Begin("summax_exact")
	seedSp := s.tr.Begin("seed_appro")
	seedRes, err := s.sumMaxAppro(q)
	seedSp.End()
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet, curCost := seedRes.Set, seedRes.Cost
	stats := Stats{SetsEvaluated: seedRes.Stats.SetsEvaluated, Prunes: seedRes.Stats.Prunes}
	stats.Phases.Seed = time.Since(start)
	s.trackStats(&stats)
	s.noteIncumbent(curSet, curCost, SumMax)

	// Each member contributes its own distance to the sum, so members of
	// any improving set lie inside C(q, curCost).
	matSp := s.tr.Begin("materialize")
	matStart := time.Now()
	cands := s.sumCandidates(q, qi, curCost)
	stats.CandidatesSeen = len(cands)
	stats.Phases.Materialize = time.Since(matStart)
	if matSp != nil {
		matSp.Attr("candidates", float64(stats.CandidatesSeen))
	}
	matSp.End()

	minDistFor := make([]float64, qi.Size())
	bitCands := make([][]int, qi.Size())
	for b := range minDistFor {
		minDistFor[b] = math.Inf(1)
	}
	for i, c := range cands {
		for b := 0; b < qi.Size(); b++ {
			if c.mask&(1<<uint(b)) != 0 {
				bitCands[b] = append(bitCands[b], i)
				if c.d < minDistFor[b] {
					minDistFor[b] = c.d
				}
			}
		}
	}
	completion := func(covered kwds.Mask) float64 {
		lb := 0.0
		for b := 0; b < qi.Size(); b++ {
			if covered&(1<<uint(b)) == 0 && minDistFor[b] > lb {
				lb = minDistFor[b]
			}
		}
		return lb
	}

	searchSp := s.tr.Begin("search")
	searchStart := time.Now()
	var chosen []int
	var dfs func(covered kwds.Mask, sum, maxPair float64)
	dfs = func(covered kwds.Mask, sum, maxPair float64) {
		s.chargeNode(&stats)
		if covered == qi.Full() {
			stats.SetsEvaluated++
			if c := sum + maxPair; c < curCost {
				curCost = c
				set := make([]dataset.ObjectID, len(chosen))
				for i, ci := range chosen {
					set[i] = cands[ci].o.ID
				}
				curSet = canonical(set)
				s.noteIncumbent(curSet, curCost, SumMax)
			}
			return
		}
		if sum+maxPair+completion(covered) >= curCost {
			stats.Prunes[trace.PruneCompletionBound]++
			return
		}
		branch, branchLen := -1, math.MaxInt32
		for b := 0; b < qi.Size(); b++ {
			if covered&(1<<uint(b)) != 0 {
				continue
			}
			if n := len(bitCands[b]); n < branchLen {
				branch, branchLen = b, n
			}
		}
		for _, ci := range bitCands[branch] {
			c := cands[ci]
			if c.mask&^covered == 0 {
				stats.Prunes[trace.PruneNoNewKeyword]++
				continue
			}
			np := maxPair
			for _, pi := range chosen {
				if d := c.o.Loc.Dist(cands[pi].o.Loc); d > np {
					np = d
				}
			}
			if sum+c.d+np >= curCost {
				stats.Prunes[trace.PruneSumBound]++
				continue
			}
			chosen = append(chosen, ci)
			dfs(covered|c.mask, sum+c.d, np)
			chosen = chosen[:len(chosen)-1]
		}
	}
	dfs(0, 0, 0)
	stats.Phases.Search = time.Since(searchStart)
	if searchSp != nil {
		searchSp.Attr("nodes", float64(stats.NodesExpanded))
		searchSp.Attr("sets_evaluated", float64(stats.SetsEvaluated))
		searchSp.Attr("cost", curCost)
	}
	searchSp.End()
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: SumMax, Stats: stats}, nil
}

// sumMaxAppro is the owner-driven H_{|q.ψ|}-approximation for SumMax. The
// enumerator's break holds as it stands: cost(S) ≥ Σ d ≥ d(owner, q).
func (s *search) sumMaxAppro(q Query) (Result, error) {
	start := time.Now()
	qi, cost := kwds.NewQueryIndex(q.Keywords), costFn{kind: SumMax}
	algo := s.tr.Begin("summax_appro")
	var stats Stats
	s.trackStats(&stats)
	seed, curCost, df, err := s.nnSeed(q, cost, &stats)
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet := canonical(seed)
	s.noteIncumbent(curSet, curCost, SumMax)
	stats.SetsEvaluated = 1

	set := make([]dataset.ObjectID, 0, qi.Size()+1)

	en := s.owners(q, qi, cost, df, false, &stats)
	defer en.release()
	for en.next(curCost, curCost) {
		// Weighted-set-cover greedy restricted to the owner's disk:
		// repeatedly add the candidate minimizing d(c,q) / |new keywords|.
		owner := en.owner()
		covered := owner.mask
		set = append(set[:0], owner.o.ID)
		sum := owner.d
		feasible := true
		for covered != qi.Full() {
			bestIdx, bestRatio := -1, math.Inf(1)
			for i := range en.pool {
				c := &en.pool[i]
				n := (c.mask &^ covered).Count()
				if n == 0 {
					continue
				}
				if r := c.d / float64(n); r < bestRatio {
					bestIdx, bestRatio = i, r
				}
			}
			if bestIdx < 0 {
				feasible = false
				break
			}
			covered |= en.pool[bestIdx].mask
			set = append(set, en.pool[bestIdx].o.ID)
			sum += en.pool[bestIdx].d
			if sum >= curCost {
				stats.Prunes[trace.PruneSumBound]++
				feasible = false // partial sum already exceeds the incumbent
				break
			}
		}
		if !feasible {
			continue
		}
		stats.SetsEvaluated++
		if c := s.EvalCost(SumMax, q.Loc, set); c < curCost {
			curSet, curCost = canonical(set), c
			s.noteIncumbent(curSet, curCost, SumMax)
		}
	}
	en.finish(curCost)
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: SumMax, Stats: stats}, nil
}
