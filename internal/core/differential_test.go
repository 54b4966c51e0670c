package core

import (
	"math"
	"testing"

	"coskq/internal/datagen"
)

// TestDifferentialDatagenWorkloads is the repository's differential
// suite: over seeded datagen workloads, the owner-driven exact algorithm
// (and the two independent exact implementations) must match the
// brute-force oracle exactly, and every approximation must stay within
// its proven ratio, for both of the paper's cost functions and the three
// extension costs.
func TestDifferentialDatagenWorkloads(t *testing.T) {
	workloads := []struct {
		name    string
		cfg     datagen.Config
		qkws    []int
		queries int
	}{
		{
			name: "clustered-zipf",
			cfg: datagen.Config{
				Name: "diff-a", NumObjects: 220, VocabSize: 40,
				AvgKeywords: 3, Clusters: 6, Seed: 101,
			},
			qkws:    []int{1, 2, 3},
			queries: 4,
		},
		{
			name: "uniform-small",
			cfg: datagen.Config{
				Name: "diff-b", NumObjects: 140, VocabSize: 25,
				AvgKeywords: 2.5, Seed: 202,
			},
			qkws:    []int{2, 4},
			queries: 4,
		},
		{
			name: "topical",
			cfg: datagen.Config{
				Name: "diff-c", NumObjects: 260, VocabSize: 60,
				AvgKeywords: 4, Clusters: 10, Topics: 5, Seed: 303,
			},
			qkws:    []int{3},
			queries: 4,
		},
	}
	cfg := DiffConfig{
		Oracle: Brute,
		Exact:  []Method{OwnerExact, PairsExact, CaoExact},
		Approx: []Method{OwnerAppro, CaoAppro1, CaoAppro2},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			ds := datagen.Generate(w.cfg)
			e := NewEngine(ds, 8)
			for _, cost := range []CostKind{MaxSum, Dia, Sum, MinMax, SumMax} {
				cfg := cfg
				if cost != MaxSum && cost != Dia {
					// The extension rows have the owner-driven pair only;
					// MinMax-Appro's ratio 2 is enforced through
					// ApproRatioBound.
					cfg.Exact, cfg.Approx = []Method{OwnerExact}, []Method{OwnerAppro}
				}
				for _, k := range w.qkws {
					if cost == MinMax && k > 2 {
						continue // the oracle tries every cover with every anchor
					}
					g := datagen.NewQueryGen(ds, e.Inv, 0, 40, w.cfg.Seed+int64(100*k))
					for i := 0; i < w.queries; i++ {
						loc, kws := g.Next(k)
						q := Query{Loc: loc, Keywords: kws}
						if err := e.Differential(q, cost, cfg); err != nil {
							t.Fatalf("%v |q.ψ|=%d query %d: %v", cost, k, i, err)
						}
					}
				}
			}
		})
	}
}

// TestDifferentialExactCrossCheckLarger cross-checks the three exact
// implementations against each other on a workload too large for the
// brute oracle, using OwnerExact (brute-verified above) as the reference.
func TestDifferentialExactCrossCheckLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("larger differential workload")
	}
	ds := datagen.Generate(datagen.Config{
		Name: "diff-large", NumObjects: 3000, VocabSize: 150,
		AvgKeywords: 4, Clusters: 20, Seed: 404,
	})
	e := NewEngine(ds, 0)
	cfg := DiffConfig{
		Oracle: OwnerExact,
		Exact:  []Method{PairsExact, CaoExact},
		Approx: []Method{OwnerAppro, CaoAppro1, CaoAppro2},
	}
	for _, cost := range []CostKind{MaxSum, Dia} {
		g := datagen.NewQueryGen(ds, e.Inv, 0, 40, 505)
		for _, k := range []int{3, 5} {
			for i := 0; i < 3; i++ {
				loc, kws := g.Next(k)
				q := Query{Loc: loc, Keywords: kws}
				if err := e.Differential(q, cost, cfg); err != nil {
					t.Fatalf("%v |q.ψ|=%d query %d: %v", cost, k, i, err)
				}
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
