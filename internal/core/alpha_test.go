package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestAlphaExactMatchesBruteForce across several α values.
func TestAlphaExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 60; trial++ {
		e := genEngine(rng, 20+rng.Intn(40), 7, 3)
		q := randQuery(rng, 9, 1+rng.Intn(4))
		for _, alpha := range []float64{0.2, 0.5, 0.8, 1.0} {
			want, err := e.SolveAlpha(q, alpha, Brute)
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.SolveAlpha(q, alpha, OwnerExact)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Cost-want.Cost) > 1e-9 {
				t.Fatalf("trial %d α=%v: exact %v, optimal %v (sets %v vs %v)",
					trial, alpha, got.Cost, want.Cost, got.Set, want.Set)
			}
		}
	}
}

// TestAlphaHalfEqualsMaxSum: cost_0.5 is half of MaxSum, so the optima and
// optimal sets' costs align under the factor 2.
func TestAlphaHalfEqualsMaxSum(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	e := genEngine(rng, 400, 10, 3)
	for trial := 0; trial < 20; trial++ {
		q := randQuery(rng, 10, 1+rng.Intn(4))
		ms, err := e.Solve(q, MaxSum, OwnerExact)
		if err == ErrInfeasible {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		al, err := e.SolveAlpha(q, 0.5, OwnerExact)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(2*al.Cost-ms.Cost) > 1e-9 {
			t.Fatalf("2·cost_0.5 = %v, MaxSum = %v", 2*al.Cost, ms.Cost)
		}
	}
}

// TestAlphaOneIsFarthestNNDistance: with α = 1 the cost is the max member
// distance, whose optimum is exactly d_f (the pairwise term vanishes).
func TestAlphaOneIsFarthestNNDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	e := genEngine(rng, 300, 10, 3)
	for trial := 0; trial < 20; trial++ {
		q := randQuery(rng, 10, 1+rng.Intn(4))
		res, err := e.SolveAlpha(q, 1, OwnerExact)
		if err == ErrInfeasible {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		df := 0.0
		for _, kw := range q.Keywords {
			if _, d, _ := e.Tree.NN(q.Loc, kw); d > df {
				df = d
			}
		}
		if math.Abs(res.Cost-df) > 1e-9 {
			t.Fatalf("α=1 optimum %v, want d_f %v", res.Cost, df)
		}
	}
}

// TestAlphaApproSaneAndFeasible: the approximation never beats the exact
// optimum and always covers.
func TestAlphaApproSaneAndFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 40; trial++ {
		e := genEngine(rng, 30+rng.Intn(60), 8, 3)
		q := randQuery(rng, 8, 1+rng.Intn(4))
		for _, alpha := range []float64{0.3, 0.7} {
			exact, err := e.SolveAlpha(q, alpha, OwnerExact)
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			ap, err := e.SolveAlpha(q, alpha, OwnerAppro)
			if err != nil {
				t.Fatal(err)
			}
			if !e.Feasible(q, ap.Set) {
				t.Fatal("alpha appro infeasible")
			}
			if ap.Cost < exact.Cost-1e-9 {
				t.Fatalf("α=%v: appro %v below exact %v", alpha, ap.Cost, exact.Cost)
			}
			if got := e.EvalCostAlpha(alpha, q.Loc, ap.Set); math.Abs(got-ap.Cost) > 1e-9 {
				t.Fatal("reported cost mismatch")
			}
		}
	}
}

// TestAlphaValidation: α outside (0,1] and unsupported methods error.
func TestAlphaValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	e := genEngine(rng, 50, 5, 2)
	q := randQuery(rng, 5, 2)
	for _, bad := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := e.SolveAlpha(q, bad, OwnerExact); err == nil {
			t.Errorf("α=%v should be rejected", bad)
		}
	}
	if _, err := e.SolveAlpha(q, 0.5, CaoExact); err == nil {
		t.Error("unsupported method should error")
	}
}

// TestAlphaBudgetSurfacesAsError: when the node budget trips inside the
// α-cost search, the internal budgetExceeded panic must be contained by
// SolveAlpha's recoverBudget shield and surface as ErrBudgetExceeded.
func TestAlphaBudgetSurfacesAsError(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	budgetHit := false
	for trial := 0; trial < 40 && !budgetHit; trial++ {
		e := genEngine(rng, 60+rng.Intn(60), 8, 3)
		e.NodeBudget = 1
		q := randQuery(rng, 9, 3+rng.Intn(3))
		for _, method := range []Method{OwnerExact, OwnerAppro} {
			res, err := e.SolveAlpha(q, 0.5, method)
			switch err {
			case nil, ErrInfeasible:
				// small search fit in the budget; try another workload
			case ErrBudgetExceeded:
				budgetHit = true
			default:
				t.Fatalf("SolveAlpha(%v) with budget 1: unexpected error %v (res %v)", method, err, res)
			}
		}
	}
	if !budgetHit {
		t.Fatal("no workload tripped the node budget; the shield went unexercised")
	}
}
