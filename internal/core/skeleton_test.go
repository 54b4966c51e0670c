package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestOwnerSkeletonPinned pins every instantiation of the owner-driven
// skeleton — the owner enumerator plus the cover search, per cost function
// and per-owner step — to golden values: the cost's float bits, the
// canonical set and the effort counters of a run. A refactor of the shared
// machinery must leave every row as it is; a deliberate change to the
// enumeration order, the ring or a bound re-records them and says why in
// CHANGES.md.
//
// Row format: cost bits, set, CandidatesSeen, OwnersTried, NodesExpanded,
// SetsEvaluated, then the prune counters. The MinMax/OwnerExact and cost_α
// rows carry no prune counters: their private cover searches never kept
// any, so those counters changed (from zero) when the searches were
// unified.
func TestOwnerSkeletonPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	e := genEngine(rng, 1500, 40, 3)
	queries := []Query{randQuery(rng, 40, 4), randQuery(rng, 40, 6)}

	row := func(r Result, prunes bool) string {
		s := fmt.Sprintf("%016x %v c=%d o=%d n=%d s=%d", math.Float64bits(r.Cost), r.Set,
			r.Stats.CandidatesSeen, r.Stats.OwnersTried, r.Stats.NodesExpanded, r.Stats.SetsEvaluated)
		if prunes {
			s += fmt.Sprintf(" p=%v", r.Stats.Prunes)
		}
		return s
	}
	// noPair is Ablation A1's NoPairPrune: the cover search keeps every
	// partial set and carries the full pairwise maximum, so its rows pin
	// that no cut of the pair bound's early exit reaches the ablation.
	noPair := *e
	noPair.Ablation.NoPairPrune = true
	solveOn := func(e *Engine, cost CostKind, m Method, prunes bool) func(Query) (string, error) {
		return func(q Query) (string, error) {
			r, err := e.Solve(q, cost, m)
			if err == nil && math.Abs(e.EvalCost(cost, q.Loc, r.Set)-r.Cost) > 1e-9 {
				t.Errorf("%v/%v: cost %v, set %v evaluates to %v", cost, m, r.Cost, r.Set, e.EvalCost(cost, q.Loc, r.Set))
			}
			return row(r, prunes), err
		}
	}
	solve := func(cost CostKind, m Method, prunes bool) func(Query) (string, error) {
		return solveOn(e, cost, m, prunes)
	}
	alpha := func(a float64, m Method) func(Query) (string, error) {
		return func(q Query) (string, error) {
			r, err := e.SolveAlpha(q, a, m)
			return row(r, false), err
		}
	}
	topK := func(cost CostKind) func(Query) (string, error) {
		return func(q Query) (string, error) {
			rs, err := e.TopK(q, cost, 3)
			parts := make([]string, len(rs))
			for i, r := range rs {
				parts[i] = fmt.Sprintf("%016x %v", math.Float64bits(r.Cost), r.Set)
			}
			if len(rs) > 0 {
				parts = append(parts, row(rs[0], true))
			}
			return strings.Join(parts, " | "), err
		}
	}

	for _, tc := range []struct {
		name string
		run  func(Query) (string, error)
		want [2]string
	}{
		{"MaxSum/OwnerExact", solve(MaxSum, OwnerExact, true), [2]string{
			"4030d42abd23cc26 [145 668 1231] c=25 o=18 n=23 s=2 p=[7 0 0 51 0 0 0 0 0]",
			"4030b56a702213c6 [76 299 1298 1320 1360] c=29 o=17 n=25 s=4 p=[12 0 0 44 0 0 0 0 0]",
		}},
		{"MaxSum/OwnerExact/NoPairPrune", solveOn(&noPair, MaxSum, OwnerExact, true), [2]string{
			"4030d42abd23cc26 [145 668 1231] c=25 o=18 n=399 s=346 p=[7 0 0 0 0 0 0 0 0]",
			"4030b56a702213c6 [76 299 1298 1320 1360] c=29 o=17 n=3980 s=3471 p=[12 0 0 0 0 0 0 0 0]",
		}},
		{"Dia/OwnerExact/NoPairPrune", solveOn(&noPair, Dia, OwnerExact, true), [2]string{
			"402166b6ccfa2e12 [145 668 1231] c=9 o=2 n=22 s=17 p=[7 0 0 0 0 0 0 0 0]",
			"402207891891a804 [299 518 672 715 1360] c=12 o=0 n=0 s=1 p=[12 0 0 0 0 0 0 0 0]",
		}},
		{"SumMax/OwnerExact/NoPairPrune", solveOn(&noPair, SumMax, OwnerExact, true), [2]string{
			"4037a22afb7b3a9f [145 668 1231] c=49 o=42 n=96 s=17 p=[7 0 0 0 0 0 0 61 0]",
			"40403ac355a32303 [299 518 672 1298 1360] c=71 o=59 n=182 s=7 p=[12 0 0 0 0 0 0 139 0]",
		}},
		{"MaxSum/OwnerAppro", solve(MaxSum, OwnerAppro, true), [2]string{
			"4030d42abd23cc26 [145 668 1231] c=25 o=18 n=0 s=2 p=[7 0 0 0 0 0 17 0 0]",
			"4030b56a702213c6 [76 299 1298 1320 1360] c=29 o=17 n=0 s=2 p=[12 0 0 0 0 0 16 0 0]",
		}},
		{"Dia/OwnerExact", solve(Dia, OwnerExact, true), [2]string{
			"402166b6ccfa2e12 [145 668 1231] c=9 o=2 n=5 s=2 p=[7 0 0 9 0 0 0 0 0]",
			"402207891891a804 [299 518 672 715 1360] c=12 o=0 n=0 s=1 p=[12 0 0 0 0 0 0 0 0]",
		}},
		{"Dia/OwnerAppro", solve(Dia, OwnerAppro, true), [2]string{
			"402166b6ccfa2e12 [145 668 1231] c=9 o=2 n=0 s=2 p=[7 0 0 0 0 0 1 0 0]",
			"402207891891a804 [299 518 672 715 1360] c=12 o=0 n=0 s=1 p=[12 0 0 0 0 0 0 0 0]",
		}},
		{"MaxSum/TopK3", topK(MaxSum), [2]string{
			"4030d42abd23cc26 [145 668 1231] | 4030d42abd23cc26 [145 668 994] | 40314a59ca5ce7d1 [145 337] | 4030d42abd23cc26 [145 668 1231] c=29 o=22 n=36 s=10 p=[7 0 0 67 0 0 0 0 0]",
			"4030b56a702213c6 [76 299 1298 1320 1360] | 4030d28b944620e6 [76 299 518 1298 1360] | 4031b5b4a7a9e50a [76 299 1298 1360 1415] | 4030b56a702213c6 [76 299 1298 1320 1360] c=31 o=19 n=43 s=11 p=[12 0 0 69 0 0 0 0 0]",
		}},
		{"Dia/TopK3", topK(Dia), [2]string{
			"402166b6ccfa2e12 [145 668 1231] | 402166b6ccfa2e12 [145 668 994] | 40231cc090de49fa [145 1231 1232] | 402166b6ccfa2e12 [145 668 1231] c=11 o=4 n=16 s=9 p=[7 0 0 10 0 0 0 0 0]",
			"402207891891a804 [299 518 672 715 1360] | 402207891891a804 [76 299 518 715 1360] | 40221b762d3515cc [518 660 672 715 1360] | 402207891891a804 [299 518 672 715 1360] c=13 o=1 n=12 s=7 p=[12 0 0 10 0 0 0 0 0]",
		}},
		{"SumMax/OwnerAppro", solve(SumMax, OwnerAppro, true), [2]string{
			"40391ea194eef750 [145 315 1231] c=17 o=10 n=10 s=1 p=[7 0 0 3 0 0 0 9 0]",
			"40403b53a13ccf24 [299 518 672 715 1360] c=23 o=11 n=11 s=1 p=[12 0 0 0 0 0 0 11 0]",
		}},
		{"Sum/OwnerExact", solve(Sum, OwnerExact, true), [2]string{
			"402b86f826c4adda [145 315 1231] c=17 o=2 n=3 s=1 p=[2 0 0 0 0 0 0 2 13]",
			"4037a13456228f2e [299 518 672 715 1360] c=39 o=3 n=8 s=1 p=[4 0 0 0 0 0 0 3 32]",
		}},
		{"SumMax/OwnerExact", solve(SumMax, OwnerExact, true), [2]string{
			"4037a22afb7b3a9f [145 668 1231] c=49 o=42 n=46 s=2 p=[7 0 0 50 0 0 0 26 0]",
			"40403ac355a32303 [299 518 672 1298 1360] c=71 o=59 n=78 s=2 p=[12 0 0 104 0 0 0 40 0]",
		}},
		{"Sum/OwnerAppro", solve(Sum, OwnerAppro, true), [2]string{
			"402b86f826c4adda [145 315 1231] c=5 o=0 n=0 s=1 p=[2 0 0 0 0 0 0 0 3]",
			"4037a13456228f2e [299 518 672 715 1360] c=16 o=1 n=1 s=1 p=[4 0 0 0 0 0 0 1 11]",
		}},
		{"MinMax/OwnerAppro", solve(MinMax, OwnerAppro, true), [2]string{
			"40285324e475dc6b [145 315 1231] c=4 o=4 n=4 s=1 p=[0 0 0 0 0 0 0 0 0]",
			"4025ee7168d50f3b [299 518 672 715 1360] c=7 o=7 n=7 s=1 p=[0 0 0 0 0 0 0 0 0]",
		}},
		{"MinMax/OwnerExact", solve(MinMax, OwnerExact, false), [2]string{
			"40230390ae56c9b8 [145 668 1231] c=15 o=10 n=12 s=2",
			"4023fbf509547384 [299 518 672 1298 1360] c=19 o=15 n=19 s=2",
		}},
		{"Alpha0.2/OwnerExact", alpha(0.2, OwnerExact), [2]string{
			"4018234b61aac31d [56 94 699] c=74 o=67 n=77 s=5",
			"401d819c419f283d [76 299 1298 1320 1360] c=81 o=69 n=82 s=4",
		}},
		{"Alpha0.2/OwnerAppro", alpha(0.2, OwnerAppro), [2]string{
			"4018234b61aac31d [56 94 699] c=74 o=67 n=0 s=5",
			"401d819c419f283d [76 299 1298 1320 1360] c=81 o=69 n=0 s=2",
		}},
		{"Alpha0.8/OwnerExact", alpha(0.8, OwnerExact), [2]string{
			"40207c3d1a099166 [145 668 1231] c=11 o=4 n=7 s=2",
			"4021f5020bca8c74 [299 518 672 715 1360] c=19 o=7 n=7 s=1",
		}},
		{"Alpha0.8/OwnerAppro", alpha(0.8, OwnerAppro), [2]string{
			"40207c3d1a099166 [145 668 1231] c=11 o=4 n=0 s=2",
			"4021f5020bca8c74 [299 518 672 715 1360] c=19 o=7 n=0 s=1",
		}},
	} {
		for qi, q := range queries {
			got, err := tc.run(q)
			if err != nil {
				t.Fatalf("%s q%d: %v", tc.name, qi, err)
			}
			if got != tc.want[qi] {
				t.Errorf("%s q%d:\n got  %q\n want %q", tc.name, qi, got, tc.want[qi])
			}
		}
	}
}

// TestParallelMatchesSerial: Engine.Parallelism is ignored, so every value
// returns exactly what Parallelism 1 returns — the cost bits, the canonical
// set and the effort counters, prune vector included — on every exact
// search that once had a worker pool: OwnerExact and CaoExact under MaxSum
// and Dia, and the cost_α search.
func TestParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		rng := rand.New(rand.NewSource(seed))
		e := genEngine(rng, 900, 25, 4)
		queries := make([]Query, 12)
		for i := range queries {
			queries[i] = randQuery(rng, 25, 2+i%3)
		}
		type row struct {
			name  string
			solve func(*Engine, Query) (Result, error)
		}
		var rows []row
		for _, cost := range []CostKind{MaxSum, Dia} {
			for _, m := range []Method{OwnerExact, CaoExact} {
				rows = append(rows, row{fmt.Sprintf("%v/%v", cost, m), func(e *Engine, q Query) (Result, error) {
					return e.Solve(q, cost, m)
				}})
			}
		}
		for _, alpha := range []float64{0.2, 0.8} {
			rows = append(rows, row{fmt.Sprintf("alpha%v/%v", alpha, OwnerExact), func(e *Engine, q Query) (Result, error) {
				return e.SolveAlpha(q, alpha, OwnerExact)
			}})
		}
		// effort is a result with its timings zeroed: what must not move.
		effort := func(r Result) Result {
			r.Stats.Elapsed, r.Stats.Phases = 0, PhaseBreakdown{}
			return r
		}
		for _, r := range rows {
			t.Run(fmt.Sprintf("seed%d/%s", seed, r.name), func(t *testing.T) {
				for qi, q := range queries {
					serial := *e
					serial.Parallelism = 1
					want, errS := r.solve(&serial, q)
					for _, par := range []int{0, 2, 8} {
						other := *e
						other.Parallelism = par
						got, err := r.solve(&other, q)
						if !errors.Is(err, errS) {
							t.Fatalf("q%d Parallelism=%d: err = %v, want %v", qi, par, err, errS)
						}
						if !reflect.DeepEqual(effort(got), effort(want)) {
							t.Fatalf("q%d Parallelism=%d:\n got  %+v\n want %+v", qi, par, effort(got), effort(want))
						}
					}
				}
			})
		}
	}
}

// TestOwnerExactAllocs pins the zero-alloc hot path: after warmup, the
// pooled search must run within a small fixed allocation count per query
// (result set, canonical copies, iterator state — not the candidate pool,
// bit indexes, or partial-set scratch, which all recycle).
func TestOwnerExactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	rng := rand.New(rand.NewSource(21))
	e := genEngine(rng, 700, 20, 4)
	queries := make([]Query, 4)
	for i := range queries {
		queries[i] = randQuery(rng, 20, 3)
	}
	// Each ceiling is this fixture's measured count plus one, so one more
	// allocation per solve fails: a scratch buffer (candidates, bits,
	// partial sets) allocated per call instead of recycled with the
	// pooled search, or a stream allocating per candidate.
	for _, tc := range []struct {
		cost      CostKind
		m         Method
		maxAllocs float64
	}{{MaxSum, OwnerExact, 10}, {MaxSum, PairsExact, 39}, {MaxSum, CaoExact, 37}, {MinMax, OwnerExact, 10}} {
		name := tc.cost.String() + "/" + tc.m.String()
		// Warm the scratch pools.
		for _, q := range queries {
			if _, err := e.Solve(q, tc.cost, tc.m); err != nil {
				t.Fatalf("%s warmup: %v", name, err)
			}
		}
		q := queries[0]
		got := testing.AllocsPerRun(30, func() {
			if _, err := e.Solve(q, tc.cost, tc.m); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs/op", name, got)
		if got > tc.maxAllocs {
			t.Errorf("%s: %.1f allocs/op, want ≤ %.0f", name, got, tc.maxAllocs)
		}
	}
}
