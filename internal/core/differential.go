package core

import (
	"fmt"
	"math"

	"coskq/internal/kwds"
)

// Differential testing harness: run several algorithms on the same query
// and cross-check their answers against an oracle — exact methods must
// match the oracle's cost, approximation methods must stay within their
// proven ratio. The harness is the reusable core of the repository's
// correctness suite (DESIGN.md §7) and is exported so the server and
// experiment layers can reuse it, e.g. as a shadow check on sampled
// production queries.

// ApproRatioBound returns the proven approximation ratio of method under
// cost: 1 for the exact algorithms, the paper's ratio for the
// approximations (MaxSum-Appro 1.375, Dia-Appro √3, Cao-Appro1 3,
// Cao-Appro2 2 under MaxSum), the slack the extension rows run their
// exact search with (MinMax 2; Sum and SumMax H_{|q.ψ|}, reported at its
// largest, H_64, since |q.ψ| ≤ kwds.MaxQueryKeywords), and 0 when no bound
// is established for the combination.
func ApproRatioBound(cost CostKind, method Method) float64 {
	switch cost {
	case MaxSum:
		switch method {
		case OwnerExact, PairsExact, CaoExact, Brute:
			return 1
		case OwnerAppro:
			return 1.375
		case CaoAppro1:
			return 3
		case CaoAppro2:
			return 2
		}
	case Dia:
		switch method {
		case OwnerExact, PairsExact, CaoExact, Brute:
			return 1
		case OwnerAppro:
			return math.Sqrt(3)
		}
	case Sum:
		switch method {
		case OwnerExact, CaoExact, Brute:
			return 1
		case OwnerAppro:
			return harmonic(kwds.MaxQueryKeywords)
		}
	case MinMax:
		switch method {
		case OwnerExact, Brute:
			return 1
		case OwnerAppro:
			return 2
		}
	case SumMax:
		switch method {
		case OwnerExact, Brute:
			return 1
		case OwnerAppro:
			return harmonic(kwds.MaxQueryKeywords)
		}
	}
	return 0
}

// DiffConfig selects the methods a Differential run cross-checks.
type DiffConfig struct {
	// Oracle provides the reference cost. The zero value is Brute, the
	// exhaustive oracle; for workloads too large for it, use OwnerExact
	// (itself brute-verified on smaller inputs) to cross-check the other
	// exact implementations.
	Oracle Method
	// Exact methods must reproduce the oracle's cost to within Tol.
	Exact []Method
	// Approx methods must return a feasible set with
	// oracle − Tol ≤ cost ≤ bound·oracle + Tol, where bound is
	// ApproRatioBound (combinations with no proven bound only get the
	// feasibility and lower-bound checks).
	Approx []Method
	// Tol is the relative floating-point tolerance (0 means 1e-9).
	Tol float64
}

// Differential solves q under cost with every configured method and
// returns a descriptive error on the first cross-check violation:
// mismatched feasibility errors, an infeasible answer set, an exact cost
// diverging from the oracle, an approximation beating the oracle
// (impossible for a correct oracle), or an approximation exceeding its
// proven ratio.
func (e *Engine) Differential(q Query, cost CostKind, cfg DiffConfig) error {
	tol := cfg.Tol
	if tol == 0 {
		tol = 1e-9
	}
	oracle := cfg.Oracle // zero value is Brute
	opt, optErr := e.Solve(q, cost, oracle)
	if optErr != nil && optErr != ErrInfeasible {
		return fmt.Errorf("differential: oracle %v failed: %w", oracle, optErr)
	}
	check := func(method Method, exact bool) error {
		res, err := e.Solve(q, cost, method)
		if (err == nil) != (optErr == nil) {
			return fmt.Errorf("differential: %v/%v error mismatch: oracle %v err=%v, method err=%v",
				cost, method, oracle, optErr, err)
		}
		if err != nil {
			return nil // both infeasible: consistent
		}
		if !e.Feasible(q, res.Set) {
			return fmt.Errorf("differential: %v/%v returned infeasible set %v", cost, method, res.Set)
		}
		if got := e.EvalCost(cost, q.Loc, res.Set); math.Abs(got-res.Cost) > tol*math.Max(1, got) {
			return fmt.Errorf("differential: %v/%v reported cost %v but set evaluates to %v",
				cost, method, res.Cost, got)
		}
		scale := tol * math.Max(1, opt.Cost)
		if res.Cost < opt.Cost-scale {
			return fmt.Errorf("differential: %v/%v cost %v beats oracle %v cost %v — oracle not optimal",
				cost, method, res.Cost, oracle, opt.Cost)
		}
		if exact {
			if math.Abs(res.Cost-opt.Cost) > scale {
				return fmt.Errorf("differential: %v/%v cost %v ≠ oracle %v cost %v",
					cost, method, res.Cost, oracle, opt.Cost)
			}
			return nil
		}
		if bound := ApproRatioBound(cost, method); bound > 0 && res.Cost > bound*opt.Cost+scale {
			return fmt.Errorf("differential: %v/%v cost %v exceeds %.4g× bound over oracle cost %v",
				cost, method, res.Cost, bound, opt.Cost)
		}
		return nil
	}
	for _, m := range cfg.Exact {
		if err := check(m, true); err != nil {
			return err
		}
	}
	for _, m := range cfg.Approx {
		if err := check(m, false); err != nil {
			return err
		}
	}
	return nil
}
