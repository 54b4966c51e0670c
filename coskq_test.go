package coskq_test

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"coskq"
)

// buildCity is a small hand-authored dataset used across the public-API
// tests.
func buildCity() *coskq.Dataset {
	b := coskq.NewBuilder("city")
	b.Add(coskq.Point{X: 1, Y: 0}, "cafe")
	b.Add(coskq.Point{X: 0, Y: 2}, "museum")
	b.Add(coskq.Point{X: 2, Y: 2}, "cafe", "museum")
	b.Add(coskq.Point{X: 10, Y: 10}, "park")
	b.Add(coskq.Point{X: -1, Y: -1}, "park", "cafe")
	return b.Build()
}

func TestPublicAPIBasicQuery(t *testing.T) {
	ds := buildCity()
	eng := coskq.NewEngine(ds, 0)
	q := coskq.Query{
		Loc:      coskq.Point{X: 0, Y: 0},
		Keywords: coskq.Keywords(eng, "cafe", "museum"),
	}
	if q.Keywords.Len() != 2 {
		t.Fatalf("Keywords resolved %d of 2", q.Keywords.Len())
	}
	res, err := eng.Solve(q, coskq.MaxSum, coskq.OwnerExact)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Feasible(q, res.Set) {
		t.Fatal("result infeasible")
	}
	// Optimum: object 2 at (2,2) alone covers both; cost = d = 2√2 ≈ 2.83.
	// Alternative {0,1}: maxD = 2, pair = √5 ≈ 2.24 → 4.24. So {2} wins.
	want := math.Hypot(2, 2)
	if math.Abs(res.Cost-want) > 1e-9 || len(res.Set) != 1 || res.Set[0] != 2 {
		t.Fatalf("MaxSum optimum = %v %v, want {2} at %v", res.Set, res.Cost, want)
	}
}

func TestPublicAPIDiaPrefersCompactPair(t *testing.T) {
	ds := buildCity()
	eng := coskq.NewEngine(ds, 0)
	q := coskq.Query{
		Loc:      coskq.Point{X: 0, Y: 0},
		Keywords: coskq.Keywords(eng, "cafe", "museum"),
	}
	res, err := eng.Solve(q, coskq.Dia, coskq.OwnerExact)
	if err != nil {
		t.Fatal(err)
	}
	// Dia({0,1}) = max(2, √5) = √5 ≈ 2.236 < Dia({2}) = 2√2 ≈ 2.83.
	if math.Abs(res.Cost-math.Sqrt(5)) > 1e-9 {
		t.Fatalf("Dia optimum cost = %v, want √5", res.Cost)
	}
}

func TestPublicAPIUnknownKeywordInfeasible(t *testing.T) {
	ds := buildCity()
	eng := coskq.NewEngine(ds, 0)
	// Keywords drops unknown words; an explicitly-interned missing word
	// makes the query infeasible.
	if got := coskq.Keywords(eng, "cafe", "zeppelin"); got.Len() != 1 {
		t.Fatalf("unknown word should be dropped, got %v", got)
	}
	if _, ok := coskq.LookupKeyword(ds, "zeppelin"); ok {
		t.Fatal("zeppelin should not resolve")
	}
	q := coskq.Query{Loc: coskq.Point{}, Keywords: coskq.NewKeywordSet(9999)}
	if _, err := eng.Solve(q, coskq.MaxSum, coskq.OwnerExact); err != coskq.ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestPublicAPIGenerateAndQueryPipeline(t *testing.T) {
	ds := coskq.Generate(coskq.GenConfig{
		Name: "pipeline", NumObjects: 5000, VocabSize: 200,
		AvgKeywords: 4, Clusters: 20, Seed: 9,
	})
	eng := coskq.NewEngine(ds, 0)
	gen := coskq.NewQueryGen(eng, 0, 40, 17)

	solved := 0
	for i := 0; i < 10; i++ {
		loc, kws := gen.Next(4)
		q := coskq.Query{Loc: loc, Keywords: kws}
		exact, err := eng.Solve(q, coskq.MaxSum, coskq.OwnerExact)
		if err == coskq.ErrInfeasible {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		appro, err := eng.Solve(q, coskq.MaxSum, coskq.OwnerAppro)
		if err != nil {
			t.Fatal(err)
		}
		if appro.Cost < exact.Cost-1e-9 || appro.Cost > 1.375*exact.Cost+1e-9 {
			t.Fatalf("appro cost %v outside [exact, 1.375×exact] = [%v, %v]",
				appro.Cost, exact.Cost, 1.375*exact.Cost)
		}
		solved++
	}
	if solved == 0 {
		t.Fatal("no query solved")
	}
}

func TestPublicAPISaveLoadRoundTrip(t *testing.T) {
	ds := coskq.Generate(coskq.GenConfig{
		Name: "rt", NumObjects: 500, VocabSize: 50, AvgKeywords: 3, Seed: 4,
	})
	path := filepath.Join(t.TempDir(), "rt.gob")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := coskq.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() || got.Stats().NumWords != ds.Stats().NumWords {
		t.Fatal("round trip changed the dataset")
	}
	// The loaded dataset answers queries identically.
	e1, e2 := coskq.NewEngine(ds, 0), coskq.NewEngine(got, 0)
	g := coskq.NewQueryGen(e1, 0, 40, 5)
	for i := 0; i < 5; i++ {
		loc, kws := g.Next(3)
		q := coskq.Query{Loc: loc, Keywords: kws}
		r1, err1 := e1.Solve(q, coskq.MaxSum, coskq.OwnerExact)
		r2, err2 := e2.Solve(q, coskq.MaxSum, coskq.OwnerExact)
		if (err1 == nil) != (err2 == nil) {
			t.Fatal("feasibility differs after round trip")
		}
		if err1 == nil && math.Abs(r1.Cost-r2.Cost) > 1e-12 {
			t.Fatalf("cost differs after round trip: %v vs %v", r1.Cost, r2.Cost)
		}
	}
}

func TestPublicAPIAugmentations(t *testing.T) {
	base := coskq.Generate(coskq.GenConfig{
		Name: "aug", NumObjects: 1000, VocabSize: 100, AvgKeywords: 4, Seed: 6,
	})
	dense := coskq.AugmentKeywords(base, 8, 1)
	if dense.Stats().AvgKeywords < 8 {
		t.Fatalf("AugmentKeywords avg = %v", dense.Stats().AvgKeywords)
	}
	big := coskq.AugmentToN(base, 3000, 2)
	if big.Len() != 3000 {
		t.Fatalf("AugmentToN len = %d", big.Len())
	}
}

func TestPublicAPIAllMethodsAgreeOnFeasibility(t *testing.T) {
	ds := coskq.Generate(coskq.GenConfig{
		Name: "agree", NumObjects: 3000, VocabSize: 150, AvgKeywords: 4, Seed: 8,
	})
	eng := coskq.NewEngine(ds, 0)
	gen := coskq.NewQueryGen(eng, 0, 40, 31)
	loc, kws := gen.Next(4)
	q := coskq.Query{Loc: loc, Keywords: kws}

	methods := []coskq.Method{
		coskq.OwnerExact, coskq.OwnerAppro,
		coskq.CaoExact, coskq.CaoAppro1, coskq.CaoAppro2,
	}
	for _, cost := range []coskq.CostKind{coskq.MaxSum, coskq.Dia} {
		var exactCost float64
		for i, m := range methods {
			res, err := eng.Solve(q, cost, m)
			if err != nil {
				t.Fatalf("%v/%v: %v", cost, m, err)
			}
			if !eng.Feasible(q, res.Set) {
				t.Fatalf("%v/%v infeasible", cost, m)
			}
			if i == 0 {
				exactCost = res.Cost
			} else if res.Cost < exactCost-1e-9 {
				t.Fatalf("%v/%v beat the exact algorithm: %v < %v", cost, m, res.Cost, exactCost)
			}
		}
	}
}

func TestPublicAPIStringers(t *testing.T) {
	if coskq.MaxSum.String() != "MaxSum" || coskq.Dia.String() != "Dia" {
		t.Fatal("CostKind stringer broken")
	}
	if coskq.OwnerExact.String() == "" || coskq.CaoAppro2.String() == "" {
		t.Fatal("Method stringer broken")
	}
}

func TestPublicAPIBooleanKNN(t *testing.T) {
	ds := buildCity()
	eng := coskq.NewEngine(ds, 0)
	// Only object 2 covers both cafe and museum.
	got := eng.BooleanKNN(coskq.Point{X: 0, Y: 0}, coskq.Keywords(eng, "cafe", "museum"), 3)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("BooleanKNN = %v, want [2]", got)
	}
	// Three objects carry "cafe"; nearest-first ordering.
	cafes := eng.BooleanKNN(coskq.Point{X: 0, Y: 0}, coskq.Keywords(eng, "cafe"), 2)
	if len(cafes) != 2 {
		t.Fatalf("cafes = %v", cafes)
	}
	d0 := ds.Object(cafes[0]).Loc.Dist(coskq.Point{})
	d1 := ds.Object(cafes[1]).Loc.Dist(coskq.Point{})
	if d0 > d1 {
		t.Fatal("BooleanKNN not ascending")
	}
}

// TestBenchModuleVets type-checks the benchmark harness against this
// checkout. bench/ is its own module (it replaces coskq with ../), so
// the root module's build and tests never compile it; without this test
// an Engine API slip would first show up as a failed benchmark run.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go vet")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
