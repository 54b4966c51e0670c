package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// exactMatchesBruteForce: cost's exact search equals the oracle for
// |q.ψ| ≤ 6 under every ablation switch, which may change effort but never
// the optimum.
func exactMatchesBruteForce(t *testing.T, cost CostKind, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ablations := []Ablation{{}, {NoOwnerRing: true}, {NoIncumbentBreak: true}, {NoPairPrune: true}, {NoSumDominance: true}}
	for trial := 0; trial < 80; trial++ {
		e := genEngine(rng, 20+rng.Intn(40), 6+rng.Intn(4), 3)
		q := randQuery(rng, 9, 1+rng.Intn(6))
		want, err := e.Solve(q, cost, Brute)
		if err == ErrInfeasible {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, ab := range ablations {
			e.Ablation = ab
			got, err := e.Solve(q, cost, OwnerExact)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Cost-want.Cost) > 1e-9 {
				t.Fatalf("trial %d %+v: %v exact %v, optimal %v (sets %v vs %v, query %v at %v)",
					trial, ab, cost, got.Cost, want.Cost, got.Set, want.Set, q.Keywords, q.Loc)
			}
		}
	}
}

func TestSumExactMatchesBruteForce(t *testing.T) { exactMatchesBruteForce(t, Sum, 20) }

func TestMinMaxExactMatchesBruteForce(t *testing.T) { exactMatchesBruteForce(t, MinMax, 22) }

// TestExtensionApproRatio: OwnerAppro under each extension cost returns a
// feasible set with OPT ≤ cost ≤ bound·OPT against the oracle. The bounds
// are written out here, not read from the code under test: H_{|q.ψ|} for
// the sum rows, 2 for MinMax.
func TestExtensionApproRatio(t *testing.T) {
	hk := func(k int) float64 {
		h := 0.0
		for i := 1; i <= k; i++ {
			h += 1 / float64(i)
		}
		return h
	}
	for _, tc := range []struct {
		cost  CostKind
		seed  int64
		bound func(k int) float64
	}{
		{Sum, 21, hk},
		{SumMax, 26, hk},
		{MinMax, 23, func(int) float64 { return 2 }},
	} {
		t.Run(tc.cost.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			worst := 1.0
			for trial := 0; trial < 80; trial++ {
				e := genEngine(rng, 20+rng.Intn(60), 8, 3)
				q := randQuery(rng, 8, 1+rng.Intn(4))
				opt, err := e.Solve(q, tc.cost, Brute)
				if err == ErrInfeasible {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Solve(q, tc.cost, OwnerAppro)
				if err != nil {
					t.Fatal(err)
				}
				if !e.Feasible(q, res.Set) {
					t.Fatalf("trial %d: infeasible set %v", trial, res.Set)
				}
				if res.Cost < opt.Cost-1e-9 {
					t.Fatalf("trial %d: appro %v below optimum %v", trial, res.Cost, opt.Cost)
				}
				if opt.Cost == 0 {
					continue
				}
				r, b := res.Cost/opt.Cost, tc.bound(q.Keywords.Len())
				if r > b+1e-9 {
					t.Fatalf("trial %d: ratio %v exceeds the bound %v at |q.ψ| = %d", trial, r, b, q.Keywords.Len())
				}
				worst = max(worst, r)
			}
			t.Logf("worst ratio %.4f", worst)
		})
	}
}

// TestApproReadsLessThanExact: an approximation earns its row by doing
// less work than the exact search it stands beside. On seeded Hotel
// queries, 30 at each |q.ψ| of 3, 6 and 9, OwnerAppro under each extension
// cost materializes fewer candidates in sum than OwnerExact. The counts
// are deterministic.
func TestApproReadsLessThanExact(t *testing.T) {
	ds := datagen.Generate(datagen.ProfileHotel(1))
	e := NewEngine(ds, 0)
	for _, cost := range []CostKind{Sum, SumMax, MinMax} {
		for _, k := range []int{3, 6, 9} {
			g := datagen.NewQueryGen(ds, e.Inv, 0, 40, int64(k)*13)
			var seen [2]int
			for i := 0; i < 30; i++ {
				loc, kws := g.Next(k)
				q := Query{Loc: loc, Keywords: kws}
				for j, m := range []Method{OwnerAppro, OwnerExact} {
					res, err := e.Solve(q, cost, m)
					if err != nil {
						t.Fatalf("%v/%v |q.ψ|=%d query %d: %v", cost, m, k, i, err)
					}
					seen[j] += res.Stats.CandidatesSeen
				}
			}
			t.Logf("%v |q.ψ|=%d: candidates appro %d, exact %d", cost, k, seen[0], seen[1])
			if seen[0] >= seen[1] {
				t.Errorf("%v |q.ψ|=%d: OwnerAppro read %d candidates, OwnerExact %d", cost, k, seen[0], seen[1])
			}
		}
	}
}

// TestExtensionFeasibility: all extension solvers return feasible sets
// with consistent reported costs on a larger instance.
func TestExtensionFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	e := genEngine(rng, 500, 12, 3)
	for trial := 0; trial < 20; trial++ {
		q := randQuery(rng, 12, 1+rng.Intn(5))
		for _, cm := range []struct {
			c CostKind
			m Method
		}{
			{Sum, OwnerAppro}, {Sum, OwnerExact},
			{MinMax, OwnerExact}, {MinMax, OwnerAppro},
			{SumMax, OwnerExact}, {SumMax, OwnerAppro},
		} {
			res, err := e.Solve(q, cm.c, cm.m)
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatalf("%v/%v: %v", cm.c, cm.m, err)
			}
			if !e.Feasible(q, res.Set) {
				t.Fatalf("%v/%v infeasible", cm.c, cm.m)
			}
			if got := e.EvalCost(cm.c, q.Loc, res.Set); math.Abs(got-res.Cost) > 1e-9 {
				t.Fatalf("%v/%v cost mismatch: reported %v, actual %v", cm.c, cm.m, res.Cost, got)
			}
		}
	}
}

func TestSumMaxExactMatchesBruteForce(t *testing.T) { exactMatchesBruteForce(t, SumMax, 25) }

// TestSumMaxMonotone: the oracle's minimal-cover restriction is valid.
func TestSumMaxMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	e := genEngine(rng, 200, 10, 3)
	q := geo.Point{X: 50, Y: 50}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		set := make([]dataset.ObjectID, 0, n+1)
		for i := 0; i < n; i++ {
			set = append(set, dataset.ObjectID(rng.Intn(e.DS.Len())))
		}
		super := append(append([]dataset.ObjectID(nil), set...), dataset.ObjectID(rng.Intn(e.DS.Len())))
		if e.EvalCost(SumMax, q, super) < e.EvalCost(SumMax, q, set)-1e-9 {
			t.Fatal("SumMax decreased under superset")
		}
	}
}

// TestDominanceFilter: the Sum optimum is the oracle's whether or not the
// enumerator drops dominated candidates.
func TestDominanceFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 50; trial++ {
		e := genEngine(rng, 20+rng.Intn(60), 7, 3)
		q := randQuery(rng, 9, 1+rng.Intn(4))
		want, err := e.Solve(q, Sum, Brute)
		if err == ErrInfeasible {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, ab := range []Ablation{{}, {NoSumDominance: true}} {
			e.Ablation = ab
			got, err := e.Solve(q, Sum, OwnerExact)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Cost-want.Cost) > 1e-9 {
				t.Fatalf("ablation %+v: Sum exact %v, optimal %v", ab, got.Cost, want.Cost)
			}
		}
		e.Ablation = Ablation{}
	}
}

// TestDominanceFilterStructure: under a position-blind cost no entry of
// the enumerator's pool is dominated by an earlier one, every relevant
// object it left out has a dominator in the pool, and the drops are
// counted; with NoSumDominance nothing is dropped.
func TestDominanceFilterStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	e := genEngine(rng, 300, 8, 3)
	q := randQuery(rng, 8, 4)
	qi := kwds.NewQueryIndex(q.Keywords)
	relevant := 0
	for i := range e.DS.Objects {
		if qi.MaskOf(e.DS.Objects[i].Keywords) != 0 {
			relevant++
		}
	}
	if relevant == 0 {
		t.Skip("no relevant objects under this seed")
	}
	drain := func(ab Ablation, check func(pool []cand, stats *Stats)) {
		t.Helper()
		eng := *e
		eng.Ablation = ab
		if _, err := eng.run(context.Background(), eng.treeSource(), q, func(s *search) (Result, error) {
			if err := s.open(q, costOf(Sum), "", false); err != nil {
				return Result{}, err
			}
			en := s.owners(0, true)
			en.drain(math.Inf(1))
			check(s.own.pool, &s.stats)
			return Result{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	drain(Ablation{NoSumDominance: true}, func(pool []cand, stats *Stats) {
		if len(pool) != relevant || stats.Prunes[trace.PruneDominated] != 0 {
			t.Fatalf("ablated: pool %d of %d relevant, %d drops", len(pool), relevant, stats.Prunes[trace.PruneDominated])
		}
	})
	drain(Ablation{}, func(pool []cand, stats *Stats) {
		if len(pool) == 0 || len(pool) > relevant {
			t.Fatalf("pool holds %d of %d relevant", len(pool), relevant)
		}
		if dropped := int(stats.Prunes[trace.PruneDominated]); len(pool)+dropped != relevant || stats.CandidatesSeen != relevant {
			t.Fatalf("pool %d + dropped %d, seen %d, relevant %d", len(pool), dropped, stats.CandidatesSeen, relevant)
		}
		kept := map[dataset.ObjectID]bool{}
		for i, c := range pool {
			kept[c.id] = true
			for _, k := range pool[:i] {
				if k.d > c.d {
					t.Fatalf("pool not ascending at %d", i)
				}
				if c.mask&^k.mask == 0 {
					t.Fatalf("pool entry %d dominated by an earlier entry", i)
				}
			}
		}
		for i := range e.DS.Objects {
			o := &e.DS.Objects[i]
			m := qi.MaskOf(o.Keywords)
			if m == 0 || kept[o.ID] {
				continue
			}
			found := false
			for _, k := range pool {
				if k.d <= q.Loc.Dist(o.Loc) && m&^k.mask == 0 {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("dropped object %d has no dominator in the pool", o.ID)
			}
		}
	})
}
