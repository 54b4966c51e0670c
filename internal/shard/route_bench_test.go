package shard

import (
	"context"
	"testing"
	"time"

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
// sorted into the pool IR-tree). It allocated 150 times (Go 1.24) while
// the router still built a dataset and an IR-tree over every pool, and
// allocates 100 times now that the pool is solved in place (-race reads
// 117). The budget is the measured value plus about a quarter for toolchain
// drift; it sits well inside the third of 1,324 the mask change promised.
const (
	parentRouteAllocs = 1324
	routeAllocBudget  = 125
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

// TestRoutePhasesWithinElapsed: a routed answer's Elapsed is the wall time
// of the route from the start of the gather, and its phases — the gather
// and the pool's preparation charged to Materialize, then the solve's own
// — add up to no more than it.
func TestRoutePhasesWithinElapsed(t *testing.T) {
	rt, qs := routeFixture(t, datagen.Generate(datagen.ProfileGN(1, 0.01)), 48)
	for i, q := range qs {
		start := time.Now()
		ans, err := rt.RouteWords(context.Background(), q.loc, q.words, q.cost, core.OwnerExact)
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		st := ans.Result.Stats
		sum := st.Phases.Seed + st.Phases.Materialize + st.Phases.Search
		if sum > st.Elapsed || st.Elapsed > wall || st.Phases.Materialize <= 0 {
			t.Errorf("query %d: phases %+v sum to %v; Elapsed %v, wall %v", i, st.Phases, sum, st.Elapsed, wall)
		}
	}
}

// TestRouteMembersInIDOrder: the pool is solved in distance order, but a
// routed answer lists its members, and Result.Set its ids, in (GID,
// shard) order.
func TestRouteMembersInIDOrder(t *testing.T) {
	rt, qs := routeFixture(t, datagen.Generate(datagen.ProfileGN(1, 0.01)), 48)
	multi := 0
	for i, q := range qs {
		ans, err := rt.RouteWords(context.Background(), q.loc, q.words, q.cost, core.OwnerExact)
		if err != nil {
			t.Fatal(err)
		}
		ms := ans.Members
		if len(ms) != len(ans.Result.Set) {
			t.Fatalf("query %d: %d members for a set of %d", i, len(ms), len(ans.Result.Set))
		}
		for j, m := range ms {
			if m.GID != ans.Result.Set[j] || (j > 0 && (m.GID < ms[j-1].GID || m.GID == ms[j-1].GID && m.Shard <= ms[j-1].Shard)) {
				t.Fatalf("query %d: members %v, set %v: not in (GID, shard) order", i, ms, ans.Result.Set)
			}
		}
		if len(ms) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no answer has two members; the order is untested")
	}
}
