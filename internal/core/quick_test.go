package core

// Property-based tests (testing/quick) over the cost-function algebra and
// the answer-set invariants, complementing the oracle-based tests.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"coskq/internal/dataset"
	"coskq/internal/geo"
)

// quickInstance is a generated (engine, point set) for cost properties.
type quickInstance struct {
	e   *Engine
	ids []dataset.ObjectID
	q   geo.Point
}

// Generate implements quick.Generator: a small random engine and a random
// non-empty member multiset.
func (quickInstance) Generate(r *rand.Rand, size int) reflect.Value {
	n := 5 + r.Intn(40)
	e := genEngine(r, n, 6, 3)
	k := 1 + r.Intn(6)
	ids := make([]dataset.ObjectID, k)
	for i := range ids {
		ids[i] = dataset.ObjectID(r.Intn(n))
	}
	return reflect.ValueOf(quickInstance{
		e:   e,
		ids: ids,
		q:   geo.Point{X: r.Float64() * 100, Y: r.Float64() * 100},
	})
}

// TestQuickCostRelations: algebraic relations between the cost functions
// hold on arbitrary sets —
// Dia ≤ MaxSum ≤ 2·Dia, MaxSum ≤ SumMax, MinMax ≤ MaxSum,
// maxD ≤ Sum, and cost_α interpolates between the components.
func TestQuickCostRelations(t *testing.T) {
	prop := func(in quickInstance) bool {
		e, q, ids := in.e, in.q, in.ids
		maxSum := e.EvalCost(MaxSum, q, ids)
		dia := e.EvalCost(Dia, q, ids)
		sum := e.EvalCost(Sum, q, ids)
		minMax := e.EvalCost(MinMax, q, ids)
		sumMax := e.EvalCost(SumMax, q, ids)
		const eps = 1e-9
		if dia > maxSum+eps || maxSum > 2*dia+eps {
			return false
		}
		if maxSum > sumMax+eps { // maxD ≤ ΣD
			return false
		}
		if minMax > maxSum+eps { // minD ≤ maxD
			return false
		}
		if sum+eps < maxSum-dia { // maxD ≤ Σd: maxSum − maxPair = maxD ≤ sum... weaker: maxD ≤ sum
			return false
		}
		// cost_α at the endpoints: α=1 is pure maxD; α→0.5 is MaxSum/2.
		if math.Abs(e.EvalCostAlpha(0.5, q, ids)*2-maxSum) > eps {
			return false
		}
		a1 := e.EvalCostAlpha(1, q, ids)
		if a1 > maxSum+eps || a1 > sum+eps {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAnswerInvariants: for random feasible queries, every
// algorithm's answer is feasible, canonical (sorted, duplicate-free) and
// consists of relevant objects.
func TestQuickAnswerInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		e := genEngine(rng, 30+rng.Intn(100), 8, 3)
		q := randQuery(rng, 8, 1+rng.Intn(4))
		for _, m := range []Method{OwnerExact, PairsExact, OwnerAppro, CaoExact, CaoAppro1, CaoAppro2} {
			res, err := e.Solve(q, MaxSum, m)
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if !e.Feasible(q, res.Set) {
				t.Fatalf("%v: infeasible answer", m)
			}
			for i, id := range res.Set {
				if i > 0 && res.Set[i-1] >= id {
					t.Fatalf("%v: answer not sorted/deduped: %v", m, res.Set)
				}
				if !e.DS.Object(id).Keywords.Intersects(q.Keywords) {
					t.Fatalf("%v: answer contains irrelevant object %d", m, id)
				}
			}
			if len(res.Set) > q.Keywords.Len()+1 {
				t.Fatalf("%v: answer larger than |q.ψ|+1: %v", m, res.Set)
			}
		}
	}
}
