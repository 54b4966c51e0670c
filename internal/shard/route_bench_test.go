package shard

import (
	"context"
	"testing"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/invindex"
)

// routeQuery is one wire-shaped routed query of the route fixtures.
type routeQuery struct {
	loc   geo.Point
	words []string
	cost  core.CostKind
}

// routeFixture builds the gn-sharded shape of bench/ over ds: a 4-shard
// subtree router and n paper-protocol queries cycling |q.ψ| 3/6/9 over
// MaxSum and Dia.
func routeFixture(tb testing.TB, ds *dataset.Dataset, n int) (*Router, []routeQuery) {
	tb.Helper()
	rt, err := NewLocalRouter(ds, 4, Subtree(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	if err := rt.Init(context.Background()); err != nil {
		tb.Fatal(err)
	}
	g := datagen.NewQueryGen(ds, invindex.Build(ds), 0, 40, 1)
	sizes := []int{3, 6, 9}
	costs := []core.CostKind{core.MaxSum, core.Dia}
	qs := make([]routeQuery, n)
	for i := range qs {
		loc, kw := g.Next(sizes[i%len(sizes)])
		words := make([]string, len(kw))
		for j, id := range kw {
			words[j] = ds.Vocab.Word(id)
		}
		qs[i] = routeQuery{loc: loc, words: words, cost: costs[(i/len(sizes))%len(costs)]}
	}
	return rt, qs
}

func benchRoute(b *testing.B, rt *Router, qs []routeQuery) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if _, err := rt.RouteWords(ctx, q.loc, q.words, q.cost, core.OwnerExact); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteGN is the in-process half of the gn-sharded workload:
// RouteWords on GN×0.05 over 4 subtree shards, exact, |q.ψ| 3/6/9.
func BenchmarkRouteGN(b *testing.B) {
	rt, qs := routeFixture(b, datagen.Generate(datagen.ProfileGN(1, 0.05)), 256)
	benchRoute(b, rt, qs)
}

// BenchmarkRouteHotel is BenchmarkRouteGN on the Hotel profile.
func BenchmarkRouteHotel(b *testing.B) {
	rt, qs := routeFixture(b, datagen.Generate(datagen.ProfileHotel(1)), 256)
	benchRoute(b, rt, qs)
}

// One RouteWords call on TestRouteAllocs' fixture allocated 1,324 times
// before the data plane moved to coverage masks and posting lists
// (measured at commit 180827a with this same test body: a []string per
// candidate, a fresh vocabulary interned per query, full keyword sets
// sorted into the pool IR-tree) and allocates 195 times now. The budget
// is the measured value plus headroom for toolchain drift (-race reads
// 214); it sits well inside the third of the parent the change promised.
const (
	parentRouteAllocs = 1324
	routeAllocBudget  = 250
)

// TestRouteAllocs keeps that gain from rotting. The fixture pools ~100
// candidates per query, so a reintroduced per-candidate []string or
// per-query interning of the candidates' words — one allocation or more
// per pooled object — overruns the budget at once.
func TestRouteAllocs(t *testing.T) {
	rt, qs := routeFixture(t, datagen.Generate(datagen.ProfileGN(1, 0.01)), 48)
	ctx := context.Background()
	i := 0
	got := testing.AllocsPerRun(2*len(qs)-1, func() {
		q := qs[i%len(qs)]
		i++
		if _, err := rt.RouteWords(ctx, q.loc, q.words, q.cost, core.OwnerExact); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RouteWords allocates %.0f/op (parent %d)", got, parentRouteAllocs)
	if got > routeAllocBudget || routeAllocBudget > parentRouteAllocs/3 {
		t.Errorf("RouteWords allocates %.0f/op, budget %d (a third of the parent's %d is %d)",
			got, routeAllocBudget, parentRouteAllocs, parentRouteAllocs/3)
	}
}
