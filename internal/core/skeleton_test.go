package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestOwnerSkeletonPinned pins every instantiation of the owner-driven
// skeleton — the owner enumerator plus the cover search, per cost function
// and per-owner step — to golden values recorded before the copies of that
// loop were folded into one: the cost's float bits, the canonical set and
// the effort counters of a serial run. A refactor of the shared machinery
// must leave every row as it is; a deliberate change to the enumeration
// order, the ring or a bound re-records them and says why.
//
// Row format: cost bits, set, CandidatesSeen, OwnersTried, NodesExpanded,
// SetsEvaluated, then the prune counters. MinMax and cost_α rows carry no
// prune counters: their private cover searches never kept any, so those
// counters changed (from zero) when the searches were unified. The
// MinMax/OwnerExact rows were re-recorded once since (n 13 → 12 and
// 20 → 19, s 3 → 2; cost and set as before): each owner's pool is now put
// in ascending query distance instead of being read in tree order, so that
// which of MinMax's tied optima comes back no longer depends on how the
// tree was packed or edited (internal/epoch's differential demands it).
func TestOwnerSkeletonPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	e := genEngine(rng, 1500, 40, 3)
	e.Parallelism = 1
	queries := []Query{randQuery(rng, 40, 4), randQuery(rng, 40, 6)}

	row := func(r Result, prunes bool) string {
		s := fmt.Sprintf("%016x %v c=%d o=%d n=%d s=%d", math.Float64bits(r.Cost), r.Set,
			r.Stats.CandidatesSeen, r.Stats.OwnersTried, r.Stats.NodesExpanded, r.Stats.SetsEvaluated)
		if prunes {
			s += fmt.Sprintf(" p=%v", r.Stats.Prunes)
		}
		return s
	}
	solve := func(cost CostKind, m Method, prunes bool) func(Query) (string, error) {
		return func(q Query) (string, error) {
			r, err := e.Solve(q, cost, m)
			return row(r, prunes), err
		}
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
			"4030d42abd23cc26 [145 668 1231] c=25 o=18 n=23 s=2 p=[7 0 0 51 0 0 0 0 0 0]",
			"4030b56a702213c6 [76 299 1298 1320 1360] c=29 o=17 n=25 s=4 p=[12 0 0 44 0 0 0 0 0 0]",
		}},
		{"MaxSum/OwnerAppro", solve(MaxSum, OwnerAppro, true), [2]string{
			"4030d42abd23cc26 [145 668 1231] c=25 o=18 n=0 s=2 p=[7 0 0 0 0 0 17 0 0 0]",
			"4030b56a702213c6 [76 299 1298 1320 1360] c=29 o=17 n=0 s=2 p=[12 0 0 0 0 0 16 0 0 0]",
		}},
		{"Dia/OwnerExact", solve(Dia, OwnerExact, true), [2]string{
			"402166b6ccfa2e12 [145 668 1231] c=9 o=2 n=5 s=2 p=[7 0 0 9 0 0 0 0 0 0]",
			"402207891891a804 [299 518 672 715 1360] c=12 o=0 n=0 s=1 p=[12 0 0 0 0 0 0 0 0 0]",
		}},
		{"Dia/OwnerAppro", solve(Dia, OwnerAppro, true), [2]string{
			"402166b6ccfa2e12 [145 668 1231] c=9 o=2 n=0 s=2 p=[7 0 0 0 0 0 1 0 0 0]",
			"402207891891a804 [299 518 672 715 1360] c=12 o=0 n=0 s=1 p=[12 0 0 0 0 0 0 0 0 0]",
		}},
		{"MaxSum/TopK3", topK(MaxSum), [2]string{
			"4030d42abd23cc26 [145 668 1231] | 4030d42abd23cc26 [145 668 994] | 40314a59ca5ce7d1 [145 337] | 4030d42abd23cc26 [145 668 1231] c=29 o=22 n=36 s=10 p=[7 0 0 67 0 0 0 0 0 0]",
			"4030b56a702213c6 [76 299 1298 1320 1360] | 4030d28b944620e6 [76 299 518 1298 1360] | 4031b5b4a7a9e50b [76 299 1298 1360 1415] | 4030b56a702213c6 [76 299 1298 1320 1360] c=31 o=19 n=43 s=11 p=[12 0 0 69 0 0 0 0 0 0]",
		}},
		{"Dia/TopK3", topK(Dia), [2]string{
			"402166b6ccfa2e12 [145 668 1231] | 402166b6ccfa2e12 [145 668 994] | 40231cc090de49fb [145 1231 1232] | 402166b6ccfa2e12 [145 668 1231] c=11 o=4 n=16 s=9 p=[7 0 0 10 0 0 0 0 0 0]",
			"402207891891a804 [299 518 672 715 1360] | 402207891891a804 [76 299 518 715 1360] | 40221b762d3515cc [518 660 672 715 1360] | 402207891891a804 [299 518 672 715 1360] c=13 o=1 n=12 s=7 p=[12 0 0 10 0 0 0 0 0 0]",
		}},
		{"SumMax/OwnerAppro", solve(SumMax, OwnerAppro, true), [2]string{
			"40391ea194eef750 [145 315 1231] c=51 o=44 n=0 s=17 p=[7 0 0 0 0 0 0 28 0 0]",
			"40403ac355a32303 [299 518 672 1298 1360] c=71 o=59 n=0 s=11 p=[12 0 0 0 0 0 0 49 0 0]",
		}},
		{"MinMax/OwnerExact", solve(MinMax, OwnerExact, false), [2]string{
			"40230390ae56c9b8 [145 668 1231] c=12 o=10 n=12 s=2",
			"4023fbf509547385 [299 518 672 1298 1360] c=28 o=15 n=19 s=2",
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
