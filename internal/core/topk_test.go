package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/kwds"
)

// bruteTopK enumerates every irredundant cover and returns the k cheapest
// costs — the oracle for TopK.
func bruteTopK(e *Engine, q Query, cost CostKind, k int) []float64 {
	qi := kwds.NewQueryIndex(q.Keywords)
	src := e.treeSource()
	relevant := e.Inv.Relevant(q.Keywords)
	type rc struct {
		id   dataset.ObjectID
		mask kwds.Mask
	}
	var cands []rc
	for _, id := range relevant {
		cands = append(cands, rc{id: id, mask: qi.MaskOf(e.DS.Object(id).Keywords)})
	}
	seen := map[string]bool{}
	var costs []float64
	var chosen []dataset.ObjectID
	var dfs func(covered kwds.Mask)
	dfs = func(covered kwds.Mask) {
		if covered == qi.Full() {
			set := irredundant(src, qi, canonical(chosen))
			key := setKey(set)
			if !seen[key] {
				seen[key] = true
				costs = append(costs, e.EvalCost(cost, q.Loc, set))
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
	sort.Float64s(costs)
	if k > len(costs) {
		k = len(costs)
	}
	return costs[:k]
}

func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		e := genEngine(rng, 15+rng.Intn(30), 6, 3)
		q := randQuery(rng, 8, 1+rng.Intn(3))
		k := 1 + rng.Intn(5)
		for _, cost := range []CostKind{MaxSum, Dia} {
			want := bruteTopK(e, q, cost, k)
			got, err := e.TopK(q, cost, k)
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d %v: %d results, want %d (query %v)", trial, cost, len(got), len(want), q.Keywords)
			}
			for i := range want {
				if math.Abs(got[i].Cost-want[i]) > 1e-9 {
					t.Fatalf("trial %d %v: rank %d cost %v, want %v", trial, cost, i, got[i].Cost, want[i])
				}
			}
		}
	}
}

func TestTopKProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := genEngine(rng, 400, 10, 3)
	for trial := 0; trial < 20; trial++ {
		q := randQuery(rng, 10, 1+rng.Intn(4))
		res, err := e.TopK(q, MaxSum, 5)
		if err == ErrInfeasible {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			t.Fatal("feasible query returned no sets")
		}
		// Ascending costs, all feasible, all distinct, rank-1 == exact.
		seen := map[string]bool{}
		for i, r := range res {
			if !e.Feasible(q, r.Set) {
				t.Fatalf("rank %d infeasible", i)
			}
			if i > 0 && r.Cost < res[i-1].Cost-1e-12 {
				t.Fatal("costs not ascending")
			}
			key := setKey(r.Set)
			if seen[key] {
				t.Fatal("duplicate set in top-k")
			}
			seen[key] = true
			if got := e.EvalCost(MaxSum, q.Loc, r.Set); math.Abs(got-r.Cost) > 1e-9 {
				t.Fatal("reported cost mismatch")
			}
		}
		exact, err := e.Solve(q, MaxSum, OwnerExact)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res[0].Cost-exact.Cost) > 1e-9 {
			t.Fatalf("top-1 cost %v != exact %v", res[0].Cost, exact.Cost)
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	e := genEngine(rng, 100, 8, 3)
	q := randQuery(rng, 8, 2)
	if got, err := e.TopK(q, MaxSum, 0); err != nil || got != nil {
		t.Fatalf("k=0 should be empty, got %v, %v", got, err)
	}
	if _, err := e.TopK(q, Sum, 3); err == nil {
		t.Fatal("TopK on Sum should be unsupported")
	}
	bad := Query{Loc: q.Loc, Keywords: kwds.NewSet(999)}
	if _, err := e.TopK(bad, MaxSum, 3); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestIrredundant(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	e := genEngine(rng, 200, 8, 3)
	src := e.treeSource()
	for trial := 0; trial < 50; trial++ {
		q := randQuery(rng, 8, 1+rng.Intn(4))
		qi := kwds.NewQueryIndex(q.Keywords)
		res, err := e.Solve(q, MaxSum, CaoAppro1)
		if err == ErrInfeasible {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		// Pad with random extra objects, then reduce.
		padded := append(append([]dataset.ObjectID(nil), res.Set...),
			dataset.ObjectID(rng.Intn(e.DS.Len())), dataset.ObjectID(rng.Intn(e.DS.Len())))
		red := irredundant(src, qi, canonical(padded))
		if !e.Feasible(q, red) {
			t.Fatal("irredundant result infeasible")
		}
		// Every member must have a private keyword.
		for i := range red {
			var m kwds.Mask
			for j, id := range red {
				if j != i {
					m |= qi.MaskOf(e.DS.Object(id).Keywords)
				}
			}
			if m == qi.Full() {
				t.Fatalf("member %d of %v is redundant", i, red)
			}
		}
	}
}
