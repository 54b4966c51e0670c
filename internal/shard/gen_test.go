package shard

// Torn-scatter tests for the generation-header protocol. A live
// (epoch-backed) shard can swap generations between the NN and Collect
// phases of one scatter; the router must detect the mismatched headers
// and re-scatter rather than merge data from two index generations.
// These tests script the headers directly: the backend's data stays
// internally consistent (one real engine), only the Gen fields change,
// so any answer the router does return must equal the engine's.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"coskq/internal/core"
	"coskq/internal/kwds"
	"coskq/internal/metrics"
	"coskq/internal/testutil"
)

// genScript wraps a Backend and rewrites its generation headers from a
// per-phase script: call i reports gens[i], with the last entry
// repeating once the script runs out.
type genScript struct {
	Backend
	nnGens  []uint64
	colGens []uint64
	nn      atomic.Int64
	col     atomic.Int64
}

func scriptGen(gens []uint64, i int64) uint64 {
	if int(i) >= len(gens) {
		return gens[len(gens)-1]
	}
	return gens[i]
}

func (b *genScript) NN(ctx context.Context, q ShardQuery) (NNResult, error) {
	res, err := b.Backend.NN(ctx, q)
	res.Gen = scriptGen(b.nnGens, b.nn.Add(1)-1)
	return res, err
}

func (b *genScript) Collect(ctx context.Context, q ShardQuery, radius float64) (CollectResult, error) {
	res, err := b.Backend.Collect(ctx, q, radius)
	res.Gen = scriptGen(b.colGens, b.col.Add(1)-1)
	return res, err
}

// genRouter builds a single-shard router whose backend reports the
// scripted generation headers, with a fresh metrics registry so the
// retry counter can be asserted.
func genRouter(t *testing.T, nnGens, colGens []uint64) (*Router, *core.Engine, *genScript) {
	t.Helper()
	ds := testDataset(51, 150)
	eng := core.NewEngine(ds, 0)
	script := &genScript{Backend: WrapEngine("live0", eng.DS, eng.Inv), nnGens: nnGens, colGens: colGens}
	r := &Router{
		Backends: []Backend{script},
		Vocab:    ds.Vocab,
		Metrics:  NewMetrics(metrics.NewRegistry()),
	}
	if err := r.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	return r, eng, script
}

func genQueryWords(t *testing.T, eng *core.Engine) []string {
	t.Helper()
	words := []string{"w000000", "w000001"}
	for _, w := range words {
		if _, ok := eng.DS.Vocab.Lookup(w); !ok {
			t.Fatalf("fixture word %q missing from test dataset", w)
		}
	}
	return words
}

// TestTornScatterRetriesAndRecovers: attempt 1 sees NN gen 1 / Collect
// gen 2 (a swap landed mid-scatter), attempt 2 sees a consistent gen 3.
// The route must succeed on the retry with the engine's exact answer,
// record one gen retry in both RouteInfo and the metrics counter, and
// never surface a failure to the caller.
func TestTornScatterRetriesAndRecovers(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	r, eng, script := genRouter(t, []uint64{1, 3}, []uint64{2, 3})
	words := genQueryWords(t, eng)
	loc := pt(400, 400)

	ans, err := r.RouteWords(context.Background(), loc, words, core.MaxSum, core.OwnerExact)
	if err != nil {
		t.Fatalf("torn-then-consistent route failed: %v", err)
	}
	if ans.Info.GenRetries != 1 {
		t.Fatalf("GenRetries = %d, want 1", ans.Info.GenRetries)
	}
	if got := r.Metrics.genRetries.Value(); got != 1 {
		t.Fatalf("gen retry counter = %d, want 1", got)
	}
	if script.nn.Load() != 2 || script.col.Load() != 2 {
		t.Fatalf("scatter calls nn=%d collect=%d, want 2/2 (full re-scatter)", script.nn.Load(), script.col.Load())
	}

	// The retried answer must be the engine's answer bit-for-bit: the
	// router discarded the torn attempt entirely.
	var set kwds.Set
	for _, w := range words {
		id, _ := eng.DS.Vocab.Lookup(w)
		set = set.Union(kwds.NewSet(id))
	}
	want, werr := eng.Solve(core.Query{Loc: loc, Keywords: set}, core.MaxSum, core.OwnerExact)
	if werr != nil {
		t.Fatal(werr)
	}
	if ans.Result.Cost != want.Cost || len(ans.Result.Set) != len(want.Set) {
		t.Fatalf("retried answer cost %v (%d members), engine %v (%d members)",
			ans.Result.Cost, len(ans.Result.Set), want.Cost, len(want.Set))
	}
	for i := range want.Set {
		if ans.Result.Set[i] != want.Set[i] {
			t.Fatalf("retried set %v != engine set %v", ans.Result.Set, want.Set)
		}
	}
}

// TestTornScatterExhaustsAttempts: the headers never agree, so after
// genRouteAttempts full routes the router gives up. Under DegradeFail
// the caller gets a ShardError with Phase "gen" — never a merged
// cross-generation answer.
func TestTornScatterExhaustsAttempts(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	r, eng, script := genRouter(t, []uint64{1}, []uint64{2})
	words := genQueryWords(t, eng)

	ans, err := r.RouteWords(context.Background(), pt(400, 400), words, core.MaxSum, core.OwnerExact)
	if err == nil {
		t.Fatal("persistently torn route returned an answer under DegradeFail")
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Phase != "gen" {
		t.Fatalf("err = %v, want ShardError with phase gen", err)
	}
	if ans.Info.GenRetries != genRouteAttempts-1 {
		t.Fatalf("GenRetries = %d, want %d", ans.Info.GenRetries, genRouteAttempts-1)
	}
	if got := r.Metrics.genRetries.Value(); got != genRouteAttempts-1 {
		t.Fatalf("gen retry counter = %d, want %d", got, genRouteAttempts-1)
	}
	if script.nn.Load() != genRouteAttempts {
		t.Fatalf("nn scatters = %d, want %d", script.nn.Load(), genRouteAttempts)
	}
}

// TestTornScatterLenientDegrade: with a lenient policy the final torn
// attempt degrades instead of failing — the answer is built from the NN
// seeds (fetched data from a single phase, never a cross-generation
// merge) and marked Degraded.
func TestTornScatterLenientDegrade(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	r, eng, _ := genRouter(t, []uint64{1}, []uint64{2})
	r.Degrade = core.DegradeIncumbent
	words := genQueryWords(t, eng)

	ans, err := r.RouteWords(context.Background(), pt(400, 400), words, core.MaxSum, core.OwnerExact)
	if err != nil {
		t.Fatalf("lenient torn route failed: %v", err)
	}
	if !ans.Result.Degraded {
		t.Fatal("persistently torn lenient answer not marked Degraded")
	}
	if ans.Info.GenRetries != genRouteAttempts-1 {
		t.Fatalf("GenRetries = %d, want %d", ans.Info.GenRetries, genRouteAttempts-1)
	}
	if len(ans.Info.Failed) == 0 || ans.Info.Failed[0].Phase != "gen" {
		t.Fatalf("failure breakdown = %+v, want a gen-phase entry", ans.Info.Failed)
	}
}

// TestStaticBackendsNeverRetry: static shards all report gen 0, so the
// protocol is invisible — no retries, counter stays zero.
func TestStaticBackendsNeverRetry(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	ds := testDataset(52, 200)
	r, err := NewLocalRouter(ds, 4, Grid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Metrics = NewMetrics(metrics.NewRegistry())
	eng := core.NewEngine(ds, 0)
	words := genQueryWords(t, eng)
	ans, err := r.RouteWords(context.Background(), pt(300, 300), words, core.MaxSum, core.OwnerExact)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Info.GenRetries != 0 || r.Metrics.genRetries.Value() != 0 {
		t.Fatalf("static route retried: info %d, counter %d", ans.Info.GenRetries, r.Metrics.genRetries.Value())
	}
}
