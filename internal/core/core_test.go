package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

// genEngine builds an engine over a random dataset. Keyword ids are
// 0..vocab-1 (words "k0".."k{vocab-1}").
func genEngine(rng *rand.Rand, n, vocab, maxKw int) *Engine {
	b := dataset.NewBuilder("t")
	ids := make([]kwds.ID, vocab)
	for i := range ids {
		ids[i] = b.Vocab().Intern(kwName(i))
	}
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(maxKw)
		set := make([]kwds.ID, k)
		for j := range set {
			set[j] = ids[rng.Intn(vocab)]
		}
		b.AddIDs(geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, kwds.NewSet(set...))
	}
	return NewEngine(b.Build(), 8)
}

func kwName(i int) string { return "k" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }

func randQuery(rng *rand.Rand, vocab, nkw int) Query {
	set := make([]kwds.ID, nkw)
	for i := range set {
		set[i] = kwds.ID(rng.Intn(vocab))
	}
	return Query{
		Loc:      geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100},
		Keywords: kwds.NewSet(set...),
	}
}

func TestEvalCost(t *testing.T) {
	b := dataset.NewBuilder("c")
	a := b.Add(geo.Point{X: 3, Y: 0}, "x") // d(q)=3
	c := b.Add(geo.Point{X: 0, Y: 4}, "y") // d(q)=4
	e := NewEngine(b.Build(), 0)
	q := geo.Point{X: 0, Y: 0}
	set := []dataset.ObjectID{a, c}
	// maxD=4, minD=3, sum=7, maxPair=5.
	if got := e.EvalCost(MaxSum, q, set); got != 9 {
		t.Errorf("MaxSum = %v, want 9", got)
	}
	if got := e.EvalCost(Dia, q, set); got != 5 {
		t.Errorf("Dia = %v, want 5", got)
	}
	if got := e.EvalCost(Sum, q, set); got != 7 {
		t.Errorf("Sum = %v, want 7", got)
	}
	if got := e.EvalCost(MinMax, q, set); got != 8 {
		t.Errorf("MinMax = %v, want 8", got)
	}
	if got := e.EvalCost(MaxSum, q, []dataset.ObjectID{a}); got != 3 {
		t.Errorf("singleton MaxSum = %v, want 3 (no pairwise term)", got)
	}
}

func TestEvalCostPanicsOnEmpty(t *testing.T) {
	e := genEngine(rand.New(rand.NewSource(1)), 10, 5, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.EvalCost(MaxSum, geo.Point{}, nil)
}

func TestInfeasibleQuery(t *testing.T) {
	e := genEngine(rand.New(rand.NewSource(2)), 50, 5, 2)
	q := Query{Loc: geo.Point{X: 1, Y: 1}, Keywords: kwds.NewSet(0, 999)}
	for _, m := range []Method{OwnerExact, OwnerAppro, CaoExact, CaoAppro1, CaoAppro2, Brute} {
		if _, err := e.Solve(q, MaxSum, m); err != ErrInfeasible {
			t.Errorf("%v: err = %v, want ErrInfeasible", m, err)
		}
	}
}

func TestUnsupportedCombination(t *testing.T) {
	e := genEngine(rand.New(rand.NewSource(3)), 20, 5, 2)
	q := Query{Loc: geo.Point{}, Keywords: kwds.NewSet(0)}
	if _, err := e.Solve(q, Sum, CaoAppro1); err == nil {
		t.Fatal("expected ErrUnsupported")
	}
	if _, err := e.Solve(q, MinMax, CaoExact); err == nil {
		t.Fatal("expected ErrUnsupported")
	}
}

// allMethods for the MaxSum/Dia costs.
var ownerMethods = []Method{OwnerExact, OwnerAppro, CaoExact, CaoAppro1, CaoAppro2}

// TestAllResultsFeasible checks that every algorithm always returns a
// feasible set whose reported cost matches EvalCost.
func TestAllResultsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := genEngine(rng, 400, 12, 3)
	for trial := 0; trial < 40; trial++ {
		q := randQuery(rng, 12, 1+rng.Intn(5))
		for _, cost := range []CostKind{MaxSum, Dia} {
			for _, m := range ownerMethods {
				res, err := e.Solve(q, cost, m)
				if err == ErrInfeasible {
					continue
				}
				if err != nil {
					t.Fatalf("%v/%v: %v", cost, m, err)
				}
				if !e.Feasible(q, res.Set) {
					t.Fatalf("%v/%v returned infeasible set %v for query %v", cost, m, res.Set, q.Keywords)
				}
				if got := e.EvalCost(cost, q.Loc, res.Set); math.Abs(got-res.Cost) > 1e-9 {
					t.Fatalf("%v/%v reported cost %v but set costs %v", cost, m, res.Cost, got)
				}
			}
		}
	}
}

// TestExactMatchesBruteForce is the central correctness property: the
// distance owner-driven exact algorithms and the Cao branch-and-bound
// baseline must return the brute-force optimal cost.
func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 120; trial++ {
		e := genEngine(rng, 20+rng.Intn(50), 6+rng.Intn(5), 3)
		q := randQuery(rng, 10, 1+rng.Intn(4))
		for _, cost := range []CostKind{MaxSum, Dia} {
			want, err := e.Solve(q, cost, Brute)
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []Method{OwnerExact, CaoExact} {
				got, err := e.Solve(q, cost, m)
				if err != nil {
					t.Fatalf("trial %d %v/%v: %v", trial, cost, m, err)
				}
				if math.Abs(got.Cost-want.Cost) > 1e-9 {
					t.Fatalf("trial %d %v/%v: cost %v, optimal %v (set %v vs %v, query %v at %v)",
						trial, cost, m, got.Cost, want.Cost, got.Set, want.Set, q.Keywords, q.Loc)
				}
			}
		}
	}
}

// TestOracleReadsNoPostings: on the oracle seeds above (and alpha_test's),
// an engine that is only a dataset and a tree answers Brute under every
// cost and under cost_α, and the oracle's dataset scan finds exactly the
// relevant objects the posting lists name.
func TestOracleReadsNoPostings(t *testing.T) {
	for _, seed := range []int64{5, 60} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 20; trial++ {
			full := genEngine(rng, 20+rng.Intn(50), 6+rng.Intn(5), 3)
			e := &Engine{DS: full.DS, Tree: full.Tree}
			q := randQuery(rng, 10, 1+rng.Intn(4))
			relevant := len(full.Inv.Relevant(q.Keywords))
			check := func(what string, res Result, err error) {
				t.Helper()
				if err == ErrInfeasible {
					return
				}
				if err != nil {
					t.Fatalf("seed %d trial %d %s: %v", seed, trial, what, err)
				}
				if res.Stats.CandidatesSeen != relevant {
					t.Fatalf("seed %d trial %d %s: oracle scanned %d candidates, postings name %d",
						seed, trial, what, res.Stats.CandidatesSeen, relevant)
				}
			}
			for _, cost := range []CostKind{MaxSum, Dia, Sum, MinMax, SumMax} {
				res, err := e.Solve(q, cost, Brute)
				check(cost.String(), res, err)
			}
			res, err := e.SolveAlpha(q, 0.3, Brute)
			check("cost_α", res, err)
		}
	}
}

// TestApproximationRatios verifies the proved bounds hold against the
// exact optimum: MaxSum-Appro ≤ 1.375, Dia-Appro ≤ √3, Cao-Appro1 ≤ 3,
// Cao-Appro2 ≤ 2 (all for MaxSum; Dia adaptations are checked against
// looser documented bounds).
func TestApproximationRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bounds := map[Method]map[CostKind]float64{
		OwnerAppro: {MaxSum: 1.375, Dia: math.Sqrt(3)},
		CaoAppro1:  {MaxSum: 3, Dia: 3},
		CaoAppro2:  {MaxSum: 2, Dia: 3},
	}
	worst := map[Method]map[CostKind]float64{
		OwnerAppro: {}, CaoAppro1: {}, CaoAppro2: {},
	}
	for trial := 0; trial < 150; trial++ {
		e := genEngine(rng, 30+rng.Intn(80), 8, 3)
		q := randQuery(rng, 8, 1+rng.Intn(4))
		for _, cost := range []CostKind{MaxSum, Dia} {
			opt, err := e.Solve(q, cost, Brute)
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			for m, bs := range bounds {
				res, err := e.Solve(q, cost, m)
				if err != nil {
					t.Fatal(err)
				}
				ratio := 1.0
				if opt.Cost > 0 {
					ratio = res.Cost / opt.Cost
				} else if res.Cost > 0 {
					t.Fatalf("optimal cost 0 but %v cost %v", m, res.Cost)
				}
				if ratio > worst[m][cost] {
					if worst[m] == nil {
						worst[m] = map[CostKind]float64{}
					}
					worst[m][cost] = ratio
				}
				if ratio > bs[cost]+1e-9 {
					t.Fatalf("trial %d: %v on %v ratio %v exceeds bound %v (cost %v vs opt %v, query %v)",
						trial, m, cost, ratio, bs[cost], res.Cost, opt.Cost, q.Keywords)
				}
			}
		}
	}
	t.Logf("worst observed ratios: %v", worst)
}

// TestApproAtLeastExact: approximations can never beat the exact optimum.
func TestApproAtLeastExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := genEngine(rng, 500, 10, 3)
	for trial := 0; trial < 30; trial++ {
		q := randQuery(rng, 10, 1+rng.Intn(5))
		for _, cost := range []CostKind{MaxSum, Dia} {
			exact, err := e.Solve(q, cost, OwnerExact)
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []Method{OwnerAppro, CaoAppro1, CaoAppro2} {
				res, err := e.Solve(q, cost, m)
				if err != nil {
					t.Fatal(err)
				}
				if res.Cost < exact.Cost-1e-9 {
					t.Fatalf("%v/%v cost %v below exact %v — exact algorithm is not exact",
						cost, m, res.Cost, exact.Cost)
				}
			}
		}
	}
}

// TestDiaAtMostMaxSum: for the same set, Dia ≤ MaxSum, so the Dia optimum
// is at most the MaxSum optimum.
func TestDiaAtMostMaxSum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e := genEngine(rng, 300, 10, 3)
	for trial := 0; trial < 30; trial++ {
		q := randQuery(rng, 10, 1+rng.Intn(4))
		ms, err := e.Solve(q, MaxSum, OwnerExact)
		if err == ErrInfeasible {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		dia, err := e.Solve(q, Dia, OwnerExact)
		if err != nil {
			t.Fatal(err)
		}
		if dia.Cost > ms.Cost+1e-9 {
			t.Fatalf("Dia optimum %v exceeds MaxSum optimum %v", dia.Cost, ms.Cost)
		}
	}
}

// TestSingleKeywordOptimal: with one query keyword the optimum is the
// nearest object containing it, for every cost function.
func TestSingleKeywordOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := genEngine(rng, 300, 10, 3)
	for trial := 0; trial < 20; trial++ {
		q := randQuery(rng, 10, 1)
		id, d, ok := e.Tree.NN(q.Loc, q.Keywords[0])
		if !ok {
			continue
		}
		for _, cost := range []CostKind{MaxSum, Dia, Sum, MinMax} {
			res, err := e.Solve(q, cost, OwnerExact)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Cost-d) > 1e-9 {
				t.Fatalf("%v: single-keyword cost %v, want NN distance %v (NN id %d)", cost, res.Cost, d, id)
			}
			if len(res.Set) != 1 {
				t.Fatalf("%v: single-keyword answer has %d members", cost, len(res.Set))
			}
		}
	}
}

// TestCostMonotoneUnderSuperset: adding objects never decreases the
// max-composed costs (MaxSum, Dia) — the structural fact the owner-driven
// minimal-cover restriction relies on.
func TestCostMonotoneUnderSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	e := genEngine(rng, 200, 10, 3)
	q := geo.Point{X: 50, Y: 50}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5)
		set := make([]dataset.ObjectID, 0, n+1)
		for i := 0; i < n; i++ {
			set = append(set, dataset.ObjectID(rng.Intn(e.DS.Len())))
		}
		super := append(append([]dataset.ObjectID(nil), set...), dataset.ObjectID(rng.Intn(e.DS.Len())))
		for _, cost := range []CostKind{MaxSum, Dia, Sum} {
			if e.EvalCost(cost, q, super) < e.EvalCost(cost, q, set)-1e-9 {
				t.Fatalf("%v decreased under superset", cost)
			}
		}
	}
}

// TestCanonical covers the answer normalization helper.
func TestCanonical(t *testing.T) {
	got := canonical([]dataset.ObjectID{5, 1, 5, 3, 1})
	want := []dataset.ObjectID{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("canonical = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("canonical = %v, want %v", got, want)
		}
	}
	if canonical(nil) != nil {
		t.Fatal("canonical(nil) should be nil")
	}
}

// TestStatsPopulated: executions record search effort and elapsed time.
func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := genEngine(rng, 400, 8, 3)
	q := randQuery(rng, 8, 3)
	res, err := e.Solve(q, MaxSum, OwnerExact)
	if err == ErrInfeasible {
		t.Skip("unlucky seed: infeasible")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	if res.Stats.SetsEvaluated < 1 {
		t.Error("SetsEvaluated not recorded")
	}
}

// TestDeterministic: same query twice gives the same cost.
func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	e := genEngine(rng, 300, 10, 3)
	q := randQuery(rng, 10, 4)
	for _, cost := range []CostKind{MaxSum, Dia} {
		for _, m := range ownerMethods {
			a, errA := e.Solve(q, cost, m)
			b, errB := e.Solve(q, cost, m)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%v/%v nondeterministic error", cost, m)
			}
			if errA != nil {
				continue
			}
			if a.Cost != b.Cost {
				t.Fatalf("%v/%v nondeterministic cost: %v vs %v", cost, m, a.Cost, b.Cost)
			}
		}
	}
}

// TestClusteredWorkload exercises the algorithms on strongly clustered
// data, the regime where owner-driven pruning differs most from N(q).
func TestClusteredWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := dataset.NewBuilder("clusters")
	ids := make([]kwds.ID, 6)
	for i := range ids {
		ids[i] = b.Vocab().Intern(kwName(i))
	}
	// Three clusters far apart; each cluster has all keywords.
	for c := 0; c < 3; c++ {
		cx, cy := float64(c)*1000, float64(c)*500
		for i := 0; i < 60; i++ {
			k := 1 + rng.Intn(2)
			set := make([]kwds.ID, k)
			for j := range set {
				set[j] = ids[rng.Intn(6)]
			}
			b.AddIDs(geo.Point{X: cx + rng.NormFloat64()*5, Y: cy + rng.NormFloat64()*5}, kwds.NewSet(set...))
		}
	}
	e := NewEngine(b.Build(), 8)
	q := Query{Loc: geo.Point{X: 1000, Y: 500}, Keywords: kwds.NewSet(ids[0], ids[1], ids[2], ids[3])}

	opt, err := e.Solve(q, MaxSum, Brute)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Cost-opt.Cost) > 1e-9 {
		t.Fatalf("clustered: exact %v, optimal %v", got.Cost, opt.Cost)
	}
	// The answer should stay within the middle cluster: diameter component
	// far below the inter-cluster distance.
	if got.Cost >= 500 {
		t.Fatalf("answer leaked across clusters: cost %v", got.Cost)
	}
	appro, err := e.Solve(q, MaxSum, OwnerAppro)
	if err != nil {
		t.Fatal(err)
	}
	if appro.Cost > 1.375*opt.Cost+1e-9 {
		t.Fatalf("clustered appro ratio %v", appro.Cost/opt.Cost)
	}
}

// TestNodeBudget: a tiny budget makes exact searches fail loudly instead
// of hanging, and does not affect approximate algorithms.
func TestNodeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	e := genEngine(rng, 2000, 8, 3)
	q := randQuery(rng, 8, 5)
	if _, err := e.Solve(q, MaxSum, OwnerExact); err == ErrInfeasible {
		t.Skip("unlucky seed: infeasible")
	}
	e.NodeBudget = 1
	for _, m := range []Method{OwnerExact, CaoExact, Brute} {
		if _, err := e.Solve(q, MaxSum, m); err != ErrBudgetExceeded {
			t.Errorf("%v with budget 1: err = %v, want ErrBudgetExceeded", m, err)
		}
	}
	if _, err := e.Solve(q, MaxSum, OwnerAppro); err != nil {
		t.Errorf("appro should ignore the budget: %v", err)
	}
	e.NodeBudget = 0
	if _, err := e.Solve(q, MaxSum, OwnerExact); err != nil {
		t.Errorf("unlimited budget should succeed: %v", err)
	}
}

// TestBudgetTripMidSearch: a budget that trips mid-enumeration, not on
// entry, surfaces as ErrBudgetExceeded from OwnerExact and from SolveAlpha
// (which has no degrade layer above it), and a budget of 1 does so from
// OwnerExact and CaoExact.
func TestBudgetTripMidSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := genEngine(rng, 900, 20, 4)
	q := randQuery(rng, 20, 4)

	// Measure the search's full effort, then set the budget to a fraction
	// of it so the trip happens mid-enumeration.
	res, err := e.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("unbudgeted: %v", err)
	}
	if res.Stats.NodesExpanded < 8 {
		t.Skipf("query too easy to trip a mid-search budget (%d nodes)", res.Stats.NodesExpanded)
	}

	run := *e
	run.NodeBudget = res.Stats.NodesExpanded / 2
	if _, err := run.Solve(q, MaxSum, OwnerExact); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("budget=%d: err = %v, want ErrBudgetExceeded", run.NodeBudget, err)
	}
	if _, err := run.SolveAlpha(q, 0.5, OwnerExact); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("budget=%d: SolveAlpha err = %v, want ErrBudgetExceeded", run.NodeBudget, err)
	}
	run.NodeBudget = 1
	for _, m := range []Method{OwnerExact, CaoExact} {
		if _, err := run.Solve(q, MaxSum, m); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%v budget=1: err = %v, want ErrBudgetExceeded", m, err)
		}
	}
}

// TestAblationsPreserveExactness: disabling pruning rules changes search
// effort, never answers.
func TestAblationsPreserveExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 40; trial++ {
		e := genEngine(rng, 30+rng.Intn(60), 8, 3)
		q := randQuery(rng, 8, 1+rng.Intn(4))
		want, err := e.Solve(q, MaxSum, OwnerExact)
		if err == ErrInfeasible {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, ab := range []Ablation{
			{NoOwnerRing: true},
			{NoIncumbentBreak: true},
			{NoPairPrune: true},
			{NoOwnerRing: true, NoIncumbentBreak: true, NoPairPrune: true},
		} {
			e.Ablation = ab
			got, err := e.Solve(q, MaxSum, OwnerExact)
			if err != nil {
				t.Fatalf("ablation %+v: %v", ab, err)
			}
			if math.Abs(got.Cost-want.Cost) > 1e-9 {
				t.Fatalf("ablation %+v changed the answer: %v vs %v", ab, got.Cost, want.Cost)
			}
			e.Ablation = Ablation{}
		}
	}
}

// TestPairsExactMatchesBruteForce: the literal pair-owners-first
// implementation is exact too.
func TestPairsExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 100; trial++ {
		e := genEngine(rng, 20+rng.Intn(50), 6+rng.Intn(5), 3)
		q := randQuery(rng, 10, 1+rng.Intn(4))
		for _, cost := range []CostKind{MaxSum, Dia} {
			want, err := e.Solve(q, cost, Brute)
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Solve(q, cost, PairsExact)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Cost-want.Cost) > 1e-9 {
				t.Fatalf("trial %d %v: PairsExact %v, optimal %v (sets %v vs %v, query %v at %v)",
					trial, cost, got.Cost, want.Cost, got.Set, want.Set, q.Keywords, q.Loc)
			}
		}
	}
}

// TestPairsExactAgreesWithOwnerExact: two independently-derived exact
// implementations must agree on larger instances where the brute-force
// oracle cannot go.
func TestPairsExactAgreesWithOwnerExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	e := genEngine(rng, 800, 12, 3)
	for trial := 0; trial < 25; trial++ {
		q := randQuery(rng, 12, 1+rng.Intn(5))
		for _, cost := range []CostKind{MaxSum, Dia} {
			a, errA := e.Solve(q, cost, OwnerExact)
			b, errB := e.Solve(q, cost, PairsExact)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%v: feasibility disagreement: %v vs %v", cost, errA, errB)
			}
			if errA != nil {
				continue
			}
			if math.Abs(a.Cost-b.Cost) > 1e-9 {
				t.Fatalf("trial %d %v: OwnerExact %v vs PairsExact %v (query %v)",
					trial, cost, a.Cost, b.Cost, q.Keywords)
			}
		}
	}
}

func TestApproRatioBound(t *testing.T) {
	cases := []struct {
		cost   CostKind
		method Method
		want   float64
	}{
		{MaxSum, OwnerExact, 1},
		{MaxSum, OwnerAppro, 1.375},
		{MaxSum, CaoAppro1, 3},
		{MaxSum, CaoAppro2, 2},
		{Dia, Brute, 1},
		{Dia, CaoAppro1, 0},                  // no proven bound for the Dia adaptation
		{Sum, OwnerAppro, 4.743890903705768}, // H_64: |q.ψ| ≤ 64
		{SumMax, OwnerAppro, 4.743890903705768},
		{MinMax, OwnerAppro, 2},
		{MinMax, OwnerExact, 1},
	}
	for _, c := range cases {
		if got := ApproRatioBound(c.cost, c.method); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ApproRatioBound(%v, %v) = %v, want %v", c.cost, c.method, got, c.want)
		}
	}
	if got := ApproRatioBound(Dia, OwnerAppro); got < 1.73 || got > 1.74 {
		t.Errorf("ApproRatioBound(Dia, OwnerAppro) = %v, want √3", got)
	}
}

// TestApproRatioBoundMatchesSolve: ApproRatioBound and the solver's
// dispatch each state which (cost, method) combinations exist, and they
// agree. Every combination Solve refuses with ErrUnsupported has bound 0
// and every other one a bound, except the Cao approximations under Dia,
// which solve without a proven ratio.
func TestApproRatioBoundMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	e := genEngine(rng, 60, 5, 2)
	q := Query{Loc: geo.Point{X: 50, Y: 50}, Keywords: e.DS.Object(0).Keywords}
	unproven := map[[2]int]bool{{int(Dia), int(CaoAppro1)}: true, {int(Dia), int(CaoAppro2)}: true}
	for cost := MaxSum; cost <= SumMax; cost++ {
		for m := OwnerExact; m <= PairsExact; m++ {
			_, err := e.Solve(q, cost, m)
			unsupported := errors.Is(err, ErrUnsupported)
			if err != nil && !unsupported {
				t.Fatalf("Solve(%v, %v): %v", cost, m, err)
			}
			bound := ApproRatioBound(cost, m)
			if want := unsupported || unproven[[2]int{int(cost), int(m)}]; (bound == 0) != want {
				t.Errorf("%v/%v: ApproRatioBound %v, Solve err %v", cost, m, bound, err)
			}
		}
	}
}

// TestNameRows: the name rows are the ones the CLI and the wire know;
// every spelling parses to its row's value in any case (a lower-case one
// without allocating), String prints the row's first name, values outside
// an enumeration print as their type and number, and PairsExact has no
// spelling.
func TestNameRows(t *testing.T) {
	if got, want := fmt.Sprint(costNames), "[[MaxSum maxsum] [Dia dia] [Sum sum] [MinMax minmax] [SumMax summax]]"; got != want {
		t.Errorf("cost rows %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(methodNames), "[[OwnerExact exact owner-exact] [OwnerAppro appro owner-appro] [Cao-Exact cao-exact] [Cao-Appro1 cao-appro1] [Cao-Appro2 cao-appro2] [Brute brute] [PairsExact]]"; got != want {
		t.Errorf("method rows %s, want %s", got, want)
	}
	cases := func(s string) []string { return []string{s, strings.ToUpper(s), strings.ToUpper(s[:1]) + s[1:]} }
	for i, row := range costNames {
		c := CostKind(i)
		if c.String() != row[0] {
			t.Errorf("CostKind(%d).String() = %q, want %q", i, c.String(), row[0])
		}
		for _, sp := range row[1:] {
			for _, in := range cases(sp) {
				if got, err := ParseCost(in); err != nil || got != c {
					t.Errorf("ParseCost(%q) = %v, %v; want %v", in, got, err, c)
				}
			}
		}
	}
	for i, row := range methodNames {
		m := Method(i)
		if m.String() != row[0] {
			t.Errorf("Method(%d).String() = %q, want %q", i, m.String(), row[0])
		}
		for _, sp := range row[1:] {
			for _, in := range cases(sp) {
				if got, err := ParseMethod(in); err != nil || got != m {
					t.Errorf("ParseMethod(%q) = %v, %v; want %v", in, got, err, m)
				}
			}
		}
	}
	if got, want := fmt.Sprint(CostKind(-1), CostKind(numCosts), Method(-1), Method(numMethods)), "CostKind(-1) CostKind(5) Method(-1) Method(7)"; got != want {
		t.Errorf("out-of-range values print %q, want %q", got, want)
	}
	for _, in := range []string{"pairsexact", "PairsExact"} {
		if _, err := ParseMethod(in); err == nil || err.Error() != `unknown method "`+in+`" (want exact, appro, cao-exact, cao-appro1, cao-appro2 or brute)` {
			t.Errorf("ParseMethod(%q) err = %v", in, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ParseCost("summax"); ParseMethod("brute") }); n != 0 {
		t.Errorf("parsing a lower-case spelling allocates %v times", n)
	}
	if _, err := ParseCost("max-sum"); err == nil || err.Error() != `unknown cost "max-sum" (want maxsum, dia, sum, minmax or summax)` {
		t.Errorf("ParseCost(max-sum) err = %v", err)
	}
}
