package core

import (
	"math/rand"
	"testing"
)

// supportedMethods lists every (cost, method) pair the solve dispatch
// accepts, mirroring the switch in solve().
var supportedMethods = map[CostKind][]Method{
	MaxSum: {OwnerExact, PairsExact, OwnerAppro, CaoExact, CaoAppro1, CaoAppro2, Brute},
	Dia:    {OwnerExact, PairsExact, OwnerAppro, CaoExact, CaoAppro1, CaoAppro2, Brute},
	Sum:    {OwnerExact, OwnerAppro, CaoExact, Brute},
	MinMax: {OwnerExact, OwnerAppro, Brute},
	SumMax: {OwnerExact, OwnerAppro, Brute},
}

// TestElapsedPopulatedPerMethod: Stats.Elapsed must be stamped for every
// supported (cost, method) combination — regression guard for algorithms
// that forget to record their wall time.
func TestElapsedPopulatedPerMethod(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := genEngine(rng, 60, 8, 3)
	q := randQuery(rng, 8, 3)
	for cost, methods := range supportedMethods {
		for _, m := range methods {
			res, err := e.Solve(q, cost, m)
			if err == ErrInfeasible {
				t.Fatalf("%v/%v: fixture query infeasible", cost, m)
			}
			if err != nil {
				t.Fatalf("%v/%v: %v", cost, m, err)
			}
			if res.Stats.Elapsed <= 0 {
				t.Errorf("%v/%v: Stats.Elapsed not populated", cost, m)
			}
		}
	}
}

// TestElapsedPopulatedOnError: even an execution that fails on a node
// budget reports how long it ran.
func TestElapsedPopulatedOnError(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	e := genEngine(rng, 300, 8, 3)
	e.NodeBudget = 1
	q := randQuery(rng, 8, 4)
	res, err := e.Solve(q, MaxSum, OwnerExact)
	if err != ErrBudgetExceeded {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res.Stats.Elapsed <= 0 {
		t.Error("Stats.Elapsed not populated on budget-exceeded return")
	}
}

// TestElapsedPopulatedTopK: every result of a top-k enumeration carries
// a nonzero Elapsed.
func TestElapsedPopulatedTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := genEngine(rng, 60, 8, 3)
	q := randQuery(rng, 8, 3)
	sets, err := e.TopK(q, MaxSum, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) == 0 {
		t.Fatal("TopK returned no sets")
	}
	for i, r := range sets {
		if r.Stats.Elapsed <= 0 {
			t.Errorf("set %d: Stats.Elapsed not populated", i)
		}
	}
}
