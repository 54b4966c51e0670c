package core

// General-α MaxMax family: the literature defines
//
//	cost_α(S) = α · max_{o∈S} d(o,q) + (1−α) · max_{o1,o2∈S} d(o1,o2)
//
// for α ∈ (0, 1]; the paper (like its predecessors) evaluates α = 0.5 and
// rescales by 2, which is this package's MaxSum. The owner-driven exact and
// approximate searches run for arbitrary α as they are: SolveAlpha hands
// ownerExact / ownerAppro the cost value with weights (α, 1−α), which
// plugs in the combiner and, through it, the ring break — cost_α ≥
// α·d(owner,q), so the enumeration stops at d(o,q) ≥ curCost/α instead of
// curCost (owner.go).
// Every pruning argument carries over verbatim (the cost stays monotone in
// both distance components and under supersets) — and so does the oracle:
// bruteForce takes the same costFn. What this file owns is the entry
// point and the exported evaluator.

import (
	"context"
	"fmt"

	"coskq/internal/dataset"
	"coskq/internal/geo"
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
	return e.treeSource().evalSet(costAlpha(alpha), q, set)
}

// SolveAlpha answers q under cost_α with the distance owner-driven
// algorithms. Supported methods: OwnerExact, OwnerAppro, Brute.
// SolveAlpha(q, 0.5, m) equals Solve(q, MaxSum, m) up to the factor 2.
func (e *Engine) SolveAlpha(q Query, alpha float64, method Method) (res Result, err error) {
	if err := checkAlpha(alpha); err != nil {
		return Result{}, err
	}
	err = e.enter(context.Background(), e.treeSource(), q, func(s *search) (err error) {
		switch method {
		case OwnerExact:
			res, err = s.ownerExact(q, costAlpha(alpha), 1)
		case OwnerAppro:
			res, err = s.ownerAppro(q, costAlpha(alpha))
		case Brute:
			res, err = s.bruteForce(q, costAlpha(alpha))
		default:
			err = fmt.Errorf("%w: cost_α with %v", ErrUnsupported, method)
		}
		return err
	})
	return res, err
}
