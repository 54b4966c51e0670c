package core

// General-α MaxMax family: the literature defines
//
//	cost_α(S) = α · max_{o∈S} d(o,q) + (1−α) · max_{o1,o2∈S} d(o1,o2)
//
// for α ∈ (0, 1]; the paper (like its predecessors) evaluates α = 0.5 and
// rescales by 2, which is this package's MaxSum. The owner-driven exact and
// approximate searches run for arbitrary α as they are: SolveAlpha hands
// ownerExact / ownerAppro a costFn carrying α, which plugs in the combiner
// and, through it, the ring break — cost_α ≥ α·d(owner,q), so the
// enumeration stops at d(o,q) ≥ curCost/α instead of curCost (owner.go).
// Every pruning argument carries over verbatim (the cost stays monotone in
// both distance components and under supersets). What this file owns is
// the entry point, the evaluator and the cost_α oracle.

import (
	"context"
	"fmt"
	"math"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

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
	return costFn{alpha: alpha}.combine(maxD, maxPair)
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
			res, err = s.ownerExact(q, costFn{alpha: alpha})
		case OwnerAppro:
			res, err = s.ownerAppro(q, costFn{alpha: alpha})
		case Brute:
			res, err = s.alphaBrute(q, alpha)
		default:
			err = fmt.Errorf("%w: cost_α with %v", ErrUnsupported, method)
		}
		return err
	})
	return res, err
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
