package shard

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

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
