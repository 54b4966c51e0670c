package shard

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/geo"
	"coskq/internal/metrics"
	"coskq/internal/testutil"
)

func pt(x, y float64) geo.Point { return geo.Point{X: x, Y: y} }

func TestSummaryRoundTrip(t *testing.T) {
	var s Summary
	words := []string{"alpha", "beta", "w000001", ""}
	for _, w := range words {
		s.Add(w)
	}
	for _, w := range words {
		if !s.Might(w) {
			t.Fatalf("false negative for %q", w)
		}
	}
	if !s.MightAny([]string{"definitely-not-here-hopefully", "beta"}) {
		t.Fatal("MightAny missed a present word")
	}
	dec, err := DecodeSummary(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec != s {
		t.Fatal("summary round trip diverged")
	}
	if _, err := DecodeSummary("zz"); err == nil {
		t.Fatal("bad hex accepted")
	}
	if _, err := DecodeSummary("abcd"); err == nil {
		t.Fatal("short summary accepted")
	}
}

func TestRouterValidation(t *testing.T) {
	ds := testDataset(22, 80)
	r, err := NewLocalRouter(ds, 2, Grid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.RouteWords(ctx, pt(0, 0), nil, core.MaxSum, core.OwnerExact); err == nil {
		t.Fatal("empty keyword list accepted")
	}
	if _, err := r.RouteWords(ctx, pt(0, 0), []string{"no-such-word-xyzzy"}, core.MaxSum, core.OwnerExact); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("unknown keyword: want ErrInfeasible, got %v", err)
	}
	empty := &Router{}
	if err := empty.Init(ctx); err == nil {
		t.Fatal("router with no backends initialized")
	}
	if _, err := (&Router{Backends: BuildBackends(nil)}).SolveCtx(ctx, core.Query{}, core.MaxSum, core.OwnerExact); err == nil {
		t.Fatal("SolveCtx without vocabulary accepted")
	}
}

// TestRouterConcurrentFanout runs multi-shard queries with an
// unbounded fanout under the race detector and the leak check.
func TestRouterConcurrentFanout(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	ds := testDataset(23, 300)
	eng := core.NewEngine(ds, 0)
	r, err := NewLocalRouter(ds, 4, Subtree(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r.fanout = 0 // all shards at once
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(seed int) {
			g := datagen.NewQueryGen(ds, eng.Inv, 0, 40, int64(9+seed))
			for i := 0; i < 4; i++ {
				loc, kws := g.Next(2)
				q := core.Query{Loc: loc, Keywords: kws}
				want, werr := eng.Solve(q, core.MaxSum, core.OwnerAppro)
				got, gerr := r.Solve(q, core.MaxSum, core.OwnerAppro)
				if (werr == nil) != (gerr == nil) {
					done <- errors.New("error mismatch under concurrency")
					return
				}
				if werr == nil && !eng.Feasible(q, got.Set) {
					done <- errors.New("routed set infeasible")
					return
				}
				_ = want
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouterBudgetFromDeadline: the router's pool solve runs under its
// Config as an engine's solve runs under the engine's. A rate so small
// that every budget derived from the call's deadline is one node trips
// the exact search on both, and both degrade to the same incumbent.
func TestRouterBudgetFromDeadline(t *testing.T) {
	ds := testDataset(25, 300)
	cfg := core.Config{NodeBudgetPerSecond: 1e-9, Degrade: core.DegradeIncumbent}
	plain := core.NewEngine(ds, 0)
	eng := &core.Engine{DS: plain.DS, Tree: plain.Tree, Config: cfg}
	r, err := NewLocalRouter(ds, 4, Subtree(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Config = cfg
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	g := datagen.NewQueryGen(ds, plain.Inv, 0, 40, 11)
	tripped := 0
	for i := 0; i < 20; i++ {
		loc, kws := g.Next(4)
		q := core.Query{Loc: loc, Keywords: kws}
		full, err := plain.SolveCtx(ctx, q, core.MaxSum, core.OwnerExact)
		if err != nil {
			t.Fatal(err)
		}
		if full.Stats.NodesExpanded < 2 {
			continue // one node fits the budget: nothing trips
		}
		want, err := eng.SolveCtx(ctx, q, core.MaxSum, core.OwnerExact)
		if err != nil || !want.Degraded || want.Stats.DegradeReason != core.DegradeReasonBudget {
			t.Fatalf("query %d: engine answered %v degraded=%v reason=%q; want a budget-degraded answer", i, err, want.Degraded, want.Stats.DegradeReason)
		}
		got, err := r.SolveCtx(ctx, q, core.MaxSum, core.OwnerExact)
		if err != nil || !got.Degraded || got.Stats.DegradeReason != core.DegradeReasonBudget {
			t.Fatalf("query %d: router answered %v degraded=%v reason=%q; want a budget-degraded answer", i, err, got.Degraded, got.Stats.DegradeReason)
		}
		if !slices.Equal(got.Set, want.Set) || got.Cost != want.Cost {
			t.Fatalf("query %d: router degraded to %v at %v, engine to %v at %v", i, got.Set, got.Cost, want.Set, want.Cost)
		}
		tripped++
	}
	if tripped == 0 {
		t.Fatal("no query expanded two nodes: the budget never tripped")
	}
	t.Logf("%d of 20 queries degraded alike", tripped)
}

// TestRouterMetrics: one routed query lands in the registered counters.
func TestRouterMetrics(t *testing.T) {
	ds := testDataset(24, 120)
	r, err := NewLocalRouter(ds, 2, Grid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	r.Metrics = NewMetrics(reg)
	eng := core.NewEngine(ds, 0)
	g := datagen.NewQueryGen(ds, eng.Inv, 0, 40, 5)
	loc, kws := g.Next(2)
	if _, err := r.Solve(core.Query{Loc: loc, Keywords: kws}, core.MaxSum, core.OwnerExact); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg.WriteText(&buf)
	text := buf.String()
	for _, want := range []string{"coskq_shard_queries_total 1", "coskq_shard_calls_total", "coskq_shard_pool_objects"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// TestShardFailureCountedOnce: one failing shard call moves the shard's
// call series and its error series by exactly one each, and no other
// series counts the failure.
func TestShardFailureCountedOnce(t *testing.T) {
	ds := testDataset(55, 150)
	eng := core.NewEngine(ds, 0)
	reg := metrics.NewRegistry()
	r := &Router{Vocab: ds.Vocab, Metrics: NewMetrics(reg), Backends: []Backend{
		WrapEngine("ok", ds, eng.Inv),
		&countingBackend{Backend: WrapEngine("bad", ds, eng.Inv), fail: "nn"},
	}}
	if err := r.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	calls := reg.Counter(`coskq_shard_calls_total{phase="nn",shard="bad"}`)
	errs := reg.Counter(`coskq_shard_rpc_errors_total{phase="nn",shard="bad"}`)
	calls0, errs0 := calls.Value(), errs.Value()
	if _, err := r.RouteWords(context.Background(), pt(500, 500), genQueryWords(t, eng), core.MaxSum, core.OwnerExact); !errors.Is(err, errShardDown) {
		t.Fatalf("RouteWords err = %v, want the failed shard's error", err)
	}
	if dc, de := calls.Value()-calls0, errs.Value()-errs0; dc != 1 || de != 1 {
		t.Fatalf("one failed call moved calls by %d and rpc errors by %d, want 1 and 1", dc, de)
	}
	var buf bytes.Buffer
	reg.WriteText(&buf)
	if strings.Contains(buf.String(), "coskq_shard_failures_total") {
		t.Fatalf("a second series counts shard failures:\n%s", buf.String())
	}
}

// TestWrapEngine: the identity backend a server exposes must agree with
// a partitioner-built single shard.
func TestWrapEngine(t *testing.T) {
	ds := testDataset(25, 90)
	eng := core.NewEngine(ds, 0)
	b := WrapEngine(ds.Name, eng.DS, eng.Inv)
	m, err := b.Meta(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Objects != ds.Len() || m.MBR != ds.MBR() {
		t.Fatalf("meta = %+v", m)
	}
	w := ds.Vocab.Word(0)
	res, err := b.NN(context.Background(), ShardQuery{Loc: pt(0, 0), Words: []string{w, "missing-word"}})
	if err != nil {
		t.Fatal(err)
	}
	hits := res.Hits
	if res.Gen != 0 || len(hits) != 2 || !hits[0].Found || hits[1].Found {
		t.Fatalf("NN result = %+v", res)
	}
	if hits[0].Cand.GID != ds.Object(hits[0].Cand.GID).ID {
		t.Fatal("identity mapping broken")
	}
}
