package core

// General-α MaxMax family: the literature defines
//
//	cost_α(S) = α · max_{o∈S} d(o,q) + (1−α) · max_{o1,o2∈S} d(o1,o2)
//
// for α ∈ (0, 1]; the paper (like its predecessors) evaluates α = 0.5 and
// rescales by 2, which is this package's MaxSum. The owner-driven exact and
// approximate searches run for arbitrary α as they are: SolveAlpha runs
// MaxSum's cells with the cost value of weights (α, 1−α), which
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

// EvalCostAlpha computes cost_α(S). It panics on an empty set; α is
// assumed valid (SolveAlpha is what rejects one outside (0, 1]).
func (e *Engine) EvalCostAlpha(alpha float64, q geo.Point, set []dataset.ObjectID) float64 {
	return e.treeSource().evalSet(costAlpha(alpha), q, set)
}

// SolveAlpha answers q under cost_α with MaxSum's OwnerExact, OwnerAppro
// and Brute cells, run under cost_α's value through the path every solve
// takes, so Config.Degrade applies and Elapsed is stamped; cost_α solves
// are not counted in the metrics, whose cost label names no α.
// SolveAlpha(q, 0.5, m) equals Solve(q, MaxSum, m) up to the factor 2.
func (e *Engine) SolveAlpha(q Query, alpha float64, method Method) (Result, error) {
	if !(alpha > 0 && alpha <= 1) {
		return Result{}, fmt.Errorf("coskq: alpha %v outside (0, 1]", alpha)
	}
	return e.run(context.Background(), e.treeSource(), q, func(s *search) (Result, error) {
		if method != OwnerExact && method != OwnerAppro && method != Brute {
			return Result{}, fmt.Errorf("%w: cost_α with %v", ErrUnsupported, method)
		}
		return cells[MaxSum].methods[method].run(s, q, costAlpha(alpha))
	})
}
