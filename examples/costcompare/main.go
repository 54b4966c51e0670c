// Costcompare runs the same query batch under every cost function the
// library supports (the paper's MaxSum and Dia plus the Sum, MinMax and
// SumMax extensions) and prints how the answers differ — set size, achieved cost
// per cost function, and the exact-vs-approximate gap. It is a compact
// tour of the whole public solving surface.
package main

import (
	"fmt"
	"log"

	"coskq"
)

func main() {
	ds := coskq.Generate(coskq.GenConfig{
		Name: "demo", NumObjects: 30000, VocabSize: 800,
		AvgKeywords: 4, Clusters: 60, Seed: 11,
	})
	eng := coskq.NewEngine(ds, 0)
	gen := coskq.NewQueryGen(eng, 0, 40, 23)

	type combo struct {
		cost   coskq.CostKind
		exact  coskq.Method
		approx coskq.Method
	}
	combos := []combo{
		{coskq.MaxSum, coskq.OwnerExact, coskq.OwnerAppro},
		{coskq.Dia, coskq.OwnerExact, coskq.OwnerAppro},
		{coskq.Sum, coskq.OwnerExact, coskq.OwnerAppro},
		{coskq.MinMax, coskq.OwnerExact, coskq.OwnerAppro},
		{coskq.SumMax, coskq.OwnerExact, coskq.OwnerAppro},
	}

	const batch = 25
	fmt.Printf("%d queries (|q.ψ|=5) over %d objects\n\n", batch, ds.Len())
	fmt.Printf("%-8s %12s %12s %10s %10s\n", "cost", "exact(avg)", "approx(avg)", "gap(avg)", "|S|(avg)")

	for _, c := range combos {
		var exSum, apSum, gap, size float64
		n := 0
		for i := 0; i < batch; i++ {
			loc, kws := gen.Next(5)
			q := coskq.Query{Loc: loc, Keywords: kws}
			ex, err := eng.Solve(q, c.cost, c.exact)
			if err == coskq.ErrInfeasible {
				continue
			}
			if err != nil {
				log.Fatal(err)
			}
			ap, err := eng.Solve(q, c.cost, c.approx)
			if err != nil {
				log.Fatal(err)
			}
			exSum += ex.Cost
			apSum += ap.Cost
			if ex.Cost > 0 {
				gap += ap.Cost/ex.Cost - 1
			}
			size += float64(len(ex.Set))
			n++
		}
		if n == 0 {
			continue
		}
		fmt.Printf("%-8v %12.2f %12.2f %9.2f%% %10.2f\n",
			c.cost, exSum/float64(n), apSum/float64(n), 100*gap/float64(n), size/float64(n))
	}

	fmt.Println("\nMaxSum charges distance-to-query + group diameter; Dia takes their max;")
	fmt.Println("Sum charges every member's travel; MinMax charges first-stop + diameter;")
	fmt.Println("SumMax charges every member's travel + diameter.")
}
