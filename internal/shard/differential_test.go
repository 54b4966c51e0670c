package shard

import (
	"fmt"
	"testing"

	"coskq/internal/core"
	"coskq/internal/datagen"
)

// TestShardedDifferential is the sharding correctness suite: over
// seeded datagen workloads, the routed answer must equal the single
// engine's (cost AND canonical set) for the exact methods and stay
// within the proven ratio of the true optimum for the approximations —
// for both partitioners, shard counts {1, 2, 4, 7}, and varying
// pool-solve worker counts, across all five cost functions. Run in CI
// under -race, this also proves the scatter machinery races-free.
func TestShardedDifferential(t *testing.T) {
	workloads := []datagen.Config{
		{Name: "sd-clustered", NumObjects: 220, VocabSize: 40, AvgKeywords: 3, Clusters: 6, Seed: 901},
		{Name: "sd-uniform", NumObjects: 150, VocabSize: 25, AvgKeywords: 2.5, Seed: 902},
	}
	// Every method the server can route (server.methodByName), under every
	// cost that supports it. The pool engine is a dataset and a tree with no
	// postings, so this also pins that no routable method reads Engine.Inv
	// (TestRoutedBrute adds the oracle, which is not routable over HTTP).
	matrix := []struct {
		cost core.CostKind
		cfg  DiffConfig
	}{
		{core.MaxSum, DiffConfig{
			Exact:  []core.Method{core.OwnerExact, core.CaoExact},
			Approx: []core.Method{core.OwnerAppro, core.CaoAppro1, core.CaoAppro2},
		}},
		{core.Dia, DiffConfig{
			Exact:  []core.Method{core.OwnerExact, core.CaoExact},
			Approx: []core.Method{core.OwnerAppro, core.CaoAppro1, core.CaoAppro2},
		}},
		{core.Sum, DiffConfig{
			Exact:  []core.Method{core.OwnerExact, core.CaoExact},
			Approx: []core.Method{core.OwnerAppro},
		}},
		{core.MinMax, DiffConfig{
			Exact:  []core.Method{core.OwnerExact},
			Approx: []core.Method{core.OwnerAppro},
		}},
		{core.SumMax, DiffConfig{
			Exact:  []core.Method{core.OwnerExact},
			Approx: []core.Method{core.OwnerAppro},
		}},
	}
	for _, w := range workloads {
		ds := datagen.Generate(w)
		eng := core.NewEngine(ds, 0)
		for _, part := range []Partitioner{Grid(), Subtree()} {
			for _, n := range []int{1, 2, 4, 7} {
				w, part, n := w, part, n
				t.Run(fmt.Sprintf("%s/%s/n%d", w.Name, part.Name(), n), func(t *testing.T) {
					t.Parallel()
					r, err := NewLocalRouter(ds, n, part, 0)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range matrix {
						g := datagen.NewQueryGen(ds, eng.Inv, 0, 40, w.Seed+int64(m.cost)*17)
						for i := 0; i < 3; i++ {
							loc, kws := g.Next(3)
							q := core.Query{Loc: loc, Keywords: kws}
							if err := Differential(eng, r, q, m.cost, m.cfg); err != nil {
								t.Fatalf("%v query %d: %v", m.cost, i, err)
							}
						}
					}
				})
			}
		}
	}
}

// TestRoutedBrute routes the Brute oracle: its candidates come from a
// scan of the pool dataset, so over 4 shards and both partitioners it must
// return the single engine's cost and canonical set under all five costs.
func TestRoutedBrute(t *testing.T) {
	w := datagen.Config{Name: "sd-brute", NumObjects: 120, VocabSize: 30, AvgKeywords: 2.5, Clusters: 4, Seed: 903}
	ds := datagen.Generate(w)
	eng := core.NewEngine(ds, 0)
	cfg := DiffConfig{Exact: []core.Method{core.Brute}}
	for _, part := range []Partitioner{Grid(), Subtree()} {
		r, err := NewLocalRouter(ds, 4, part, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, cost := range []core.CostKind{core.MaxSum, core.Dia, core.Sum, core.MinMax, core.SumMax} {
			g := datagen.NewQueryGen(ds, eng.Inv, 0, 40, w.Seed+int64(cost))
			for i := 0; i < 2; i++ {
				loc, kws := g.Next(3)
				if err := Differential(eng, r, core.Query{Loc: loc, Keywords: kws}, cost, cfg); err != nil {
					t.Fatalf("%s/%v query %d: %v", part.Name(), cost, i, err)
				}
			}
		}
	}
}
