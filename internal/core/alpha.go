package core

// General-α MaxMax family: the literature defines
//
//	cost_α(S) = α · max_{o∈S} d(o,q) + (1−α) · max_{o1,o2∈S} d(o1,o2)
//
// for α ∈ (0, 1]; the paper (like its predecessors) evaluates α = 0.5 and
// rescales by 2, which is this package's MaxSum. This file generalizes the
// owner-driven exact and approximate searches to arbitrary α. The only
// structural changes are the combiner and the owner-ring break: cost_α ≥
// α·d(owner,q), so the enumeration stops at d(o,q) ≥ curCost/α instead of
// curCost. All other pruning arguments carry over verbatim (the cost stays
// monotone in both distance components and under supersets).

import (
	"context"
	"fmt"
	"math"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

// alphaCombine is cost_α of the two owner components.
func alphaCombine(alpha, ownerDist, maxPair float64) float64 {
	return alpha*ownerDist + (1-alpha)*maxPair
}

func checkAlpha(alpha float64) error {
	if !(alpha > 0 && alpha <= 1) {
		return fmt.Errorf("coskq: alpha %v outside (0, 1]", alpha)
	}
	return nil
}

// EvalCostAlpha computes cost_α(S). It panics on an empty set; it returns
// an error via SolveAlpha's validation for out-of-range α, so here α is
// assumed valid.
func (e *Engine) EvalCostAlpha(alpha float64, q geo.Point, set []dataset.ObjectID) float64 {
	if len(set) == 0 {
		panic("coskq: EvalCostAlpha on empty set")
	}
	maxD, maxPair := 0.0, 0.0
	for i, a := range set {
		pa := e.DS.Object(a).Loc
		if d := q.Dist(pa); d > maxD {
			maxD = d
		}
		for _, b := range set[i+1:] {
			if d := pa.Dist(e.DS.Object(b).Loc); d > maxPair {
				maxPair = d
			}
		}
	}
	return alphaCombine(alpha, maxD, maxPair)
}

// SolveAlpha answers q under cost_α with the distance owner-driven
// algorithms. Supported methods: OwnerExact, OwnerAppro, Brute.
// SolveAlpha(q, 0.5, m) equals Solve(q, MaxSum, m) up to the factor 2.
func (e *Engine) SolveAlpha(q Query, alpha float64, method Method) (res Result, err error) {
	if err := checkAlpha(alpha); err != nil {
		return Result{}, err
	}
	err = e.enter(context.Background(), q, func(s *search) (err error) {
		switch method {
		case OwnerExact:
			res, err = s.alphaExact(q, alpha)
		case OwnerAppro:
			res, err = s.alphaAppro(q, alpha)
		case Brute:
			res, err = s.alphaBrute(q, alpha)
		default:
			err = fmt.Errorf("%w: cost_α with %v", ErrUnsupported, method)
		}
		return err
	})
	return res, err
}

// alphaSeed builds N(q), its cost_α and d_f.
func (e *Engine) alphaSeed(q Query, alpha float64) (set []dataset.ObjectID, c, df float64, err error) {
	ids, ok := e.Tree.NNSet(q.Loc, q.Keywords)
	if !ok {
		return nil, 0, 0, ErrInfeasible
	}
	for _, id := range ids {
		if d := q.Loc.Dist(e.DS.Object(id).Loc); d > df {
			df = d
		}
	}
	return ids, e.EvalCostAlpha(alpha, q.Loc, ids), df, nil
}

// alphaExact is ownerExact generalized to cost_α.
func (s *search) alphaExact(q Query, alpha float64) (res Result, err error) {
	defer recoverBudget(&err)
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	seed, curCost, df, err := s.alphaSeed(q, alpha)
	if err != nil {
		return Result{}, err
	}
	curSet := canonical(seed)
	stats := Stats{SetsEvaluated: 1}

	var pool []cand
	bitCands := make([][]int32, qi.Size())

	it := s.Tree.NewRelevantNNIterator(q.Loc, qi)
	it.Limit(curCost / alpha)
	for {
		o, dof, ok := it.Next()
		if !ok {
			break
		}
		if alpha*dof >= curCost {
			break // cost_α(S) ≥ α·d(owner, q)
		}
		mask := qi.MaskOf(o.Keywords)
		idx := int32(len(pool))
		pool = append(pool, cand{o: o, d: dof, mask: mask})
		for b := 0; b < qi.Size(); b++ {
			if mask&(1<<uint(b)) != 0 {
				bitCands[b] = append(bitCands[b], idx)
			}
		}
		stats.CandidatesSeen++
		s.pollCancel(stats.CandidatesSeen)
		if dof < df {
			continue
		}
		stats.OwnersTried++
		set, c := s.alphaBestWithOwner(qi, alpha, pool, bitCands, int(idx), curCost, &stats)
		if set != nil && c < curCost {
			curSet, curCost = canonical(set), c
			it.Limit(curCost / alpha)
		}
	}

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: MaxSum, Stats: stats}, nil
}

// alphaBestWithOwner mirrors bestWithOwner for cost_α.
func (s *search) alphaBestWithOwner(qi *kwds.QueryIndex, alpha float64, pool []cand, bitCands [][]int32, ownerIdx int, bound float64, stats *Stats) ([]dataset.ObjectID, float64) {
	owner := pool[ownerIdx]
	dof := owner.d
	if qi.Full()&^owner.mask == 0 {
		stats.SetsEvaluated++
		if c := alphaCombine(alpha, dof, 0); c < bound {
			return []dataset.ObjectID{owner.o.ID}, c
		}
		return nil, 0
	}
	if alphaCombine(alpha, dof, 0) >= bound {
		return nil, 0
	}

	var (
		bestSet  []dataset.ObjectID
		bestCost = bound
		chosen   = make([]int32, 0, qi.Size())
	)
	var dfs func(covered kwds.Mask, maxPair float64)
	dfs = func(covered kwds.Mask, maxPair float64) {
		s.chargeNode(stats)
		if covered == qi.Full() {
			stats.SetsEvaluated++
			if c := alphaCombine(alpha, dof, maxPair); c < bestCost {
				bestCost = c
				bestSet = append(bestSet[:0], owner.o.ID)
				for _, ci := range chosen {
					bestSet = append(bestSet, pool[ci].o.ID)
				}
			}
			return
		}
		branchBit, branchLen := -1, math.MaxInt32
		for b := 0; b < qi.Size(); b++ {
			if covered&(1<<uint(b)) != 0 {
				continue
			}
			if n := len(bitCands[b]); n < branchLen {
				branchBit, branchLen = b, n
			}
		}
		for _, ci := range bitCands[branchBit] {
			c := pool[ci]
			if c.mask&^covered == 0 {
				continue
			}
			np := maxPair
			if d := c.o.Loc.Dist(owner.o.Loc); d > np {
				np = d
			}
			for _, pi := range chosen {
				if d := c.o.Loc.Dist(pool[pi].o.Loc); d > np {
					np = d
				}
			}
			if alphaCombine(alpha, dof, np) >= bestCost {
				continue
			}
			chosen = append(chosen, ci)
			dfs(covered|c.mask, np)
			chosen = chosen[:len(chosen)-1]
		}
	}
	dfs(owner.mask, 0)

	if bestSet == nil {
		return nil, 0
	}
	return bestSet, bestCost
}

// alphaAppro is ownerAppro generalized to cost_α: per owner, cover each
// missing keyword with the owner's nearest covering disk object.
func (s *search) alphaAppro(q Query, alpha float64) (Result, error) {
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	seed, curCost, df, err := s.alphaSeed(q, alpha)
	if err != nil {
		return Result{}, err
	}
	curSet := canonical(seed)
	stats := Stats{SetsEvaluated: 1}

	var pool []cand
	bitCands := make([][]int32, qi.Size())
	set := make([]dataset.ObjectID, 0, qi.Size()+1)

	it := s.Tree.NewRelevantNNIterator(q.Loc, qi)
	it.Limit(curCost / alpha)
	for {
		o, dof, ok := it.Next()
		if !ok {
			break
		}
		if alpha*dof >= curCost {
			break
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
			continue
		}
		stats.OwnersTried++

		need := qi.Full() &^ ownerMask
		if need == 0 {
			stats.SetsEvaluated++
			if c := alphaCombine(alpha, dof, 0); c < curCost {
				curSet, curCost = []dataset.ObjectID{o.ID}, c
			}
			continue
		}
		set = set[:0]
		feasible := true
		maxToOwner := 0.0
		for b := 0; b < qi.Size(); b++ {
			if need&(1<<uint(b)) == 0 {
				continue
			}
			bestIdx, bestDist := int32(-1), 0.0
			for _, ci := range bitCands[b] {
				d := pool[ci].o.Loc.Dist(o.Loc)
				if bestIdx < 0 || d < bestDist {
					bestIdx, bestDist = ci, d
				}
			}
			if bestIdx < 0 {
				feasible = false
				break
			}
			if bestDist > maxToOwner {
				maxToOwner = bestDist
			}
			if alphaCombine(alpha, dof, maxToOwner) >= curCost {
				feasible = false
				break
			}
			set = append(set, pool[bestIdx].o.ID)
		}
		if !feasible {
			continue
		}
		set = append(set, o.ID)
		stats.SetsEvaluated++
		if c := s.EvalCostAlpha(alpha, q.Loc, set); c < curCost {
			curSet, curCost = canonical(set), c
			it.Limit(curCost / alpha)
		}
	}

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: MaxSum, Stats: stats}, nil
}

// alphaBrute is the cost_α oracle (minimal covers suffice: cost_α is
// superset-monotone).
func (s *search) alphaBrute(q Query, alpha float64) (res Result, err error) {
	defer recoverBudget(&err)
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
	for _, id := range s.Inv.Relevant(q.Keywords) {
		m := qi.MaskOf(s.DS.Object(id).Keywords)
		cands = append(cands, rc{id: id, mask: m})
		union |= m
	}
	if union != qi.Full() {
		return Result{}, ErrInfeasible
	}

	stats := Stats{CandidatesSeen: len(cands)}
	var (
		bestSet  []dataset.ObjectID
		bestCost = math.Inf(1)
		chosen   []dataset.ObjectID
	)
	var dfs func(covered kwds.Mask)
	dfs = func(covered kwds.Mask) {
		s.chargeNode(&stats)
		if covered == qi.Full() {
			stats.SetsEvaluated++
			if c := s.EvalCostAlpha(alpha, q.Loc, chosen); c < bestCost {
				bestCost = c
				bestSet = canonical(chosen)
			}
			return
		}
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
	return Result{Set: bestSet, Cost: bestCost, Cost2: MaxSum, Stats: stats}, nil
}
