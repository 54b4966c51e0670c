package shard

// Router contracts that hold for any backend: the router polls its
// context wherever a cancelled query would otherwise pay for more shard
// calls, and every shard failure it surfaces is a *ShardError naming
// the shard and the phase.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

var errShardDown = errors.New("shard down")

// countingBackend counts its Meta calls, runs hook at the start of every
// call, and fails every call of phase fail.
type countingBackend struct {
	Backend
	fail  string
	hook  func(phase string)
	metas atomic.Int64
}

func (b *countingBackend) enter(phase string) error {
	if b.hook != nil {
		b.hook(phase)
	}
	if phase == b.fail {
		return errShardDown
	}
	return nil
}

func (b *countingBackend) Meta(ctx context.Context) (Meta, error) {
	b.metas.Add(1)
	if err := b.enter("meta"); err != nil {
		return Meta{}, err
	}
	return b.Backend.Meta(ctx)
}

func (b *countingBackend) NN(ctx context.Context, q ShardQuery) (NNResult, error) {
	if err := b.enter("nn"); err != nil {
		return NNResult{}, err
	}
	return b.Backend.NN(ctx, q)
}

func (b *countingBackend) Collect(ctx context.Context, q ShardQuery, radius float64) (CollectResult, error) {
	if err := b.enter("collect"); err != nil {
		return CollectResult{}, err
	}
	return b.Backend.Collect(ctx, q, radius)
}

// pollCtx is cancelled only as far as Err can tell: Done never closes,
// so a shard call in flight runs to completion and only the router's own
// polls observe the cancellation.
type pollCtx struct {
	context.Context
	cancelled atomic.Bool
	done      chan struct{}
}

func newPollCtx() *pollCtx {
	return &pollCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

func (c *pollCtx) Err() error {
	if c.cancelled.Load() {
		return context.Canceled
	}
	return nil
}

// TestInitStopsAtCancel: a startup cancelled during backend 0's Meta
// calls no other backend.
func TestInitStopsAtCancel(t *testing.T) {
	eng := core.NewEngine(testDataset(53, 100), 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bs := make([]*countingBackend, 3)
	r := &Router{}
	for i := range bs {
		bs[i] = &countingBackend{Backend: WrapEngine("s", eng.DS, eng.Inv)}
		r.Backends = append(r.Backends, bs[i])
	}
	bs[0].hook = func(string) { cancel() }
	if err := r.Init(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Init err = %v, want Canceled", err)
	}
	for i, b := range bs[1:] {
		if n := b.metas.Load(); n != 0 {
			t.Errorf("backend %d: %d Meta calls after the cancel", i+1, n)
		}
	}
}

// TestRouteStopsRetryingOnCancel: when every attempt tears and the query
// is cancelled during attempt 1, RouteWords makes no second attempt.
func TestRouteStopsRetryingOnCancel(t *testing.T) {
	r, eng, script := genRouter(t, []uint64{1}, []uint64{2})
	ctx := newPollCtx()
	r.Backends[0] = &countingBackend{Backend: script, hook: func(phase string) {
		if phase == "collect" {
			ctx.cancelled.Store(true)
		}
	}}
	_, err := r.RouteWords(ctx, pt(400, 400), genQueryWords(t, eng), core.MaxSum, core.OwnerExact)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RouteWords err = %v, want Canceled", err)
	}
	if n := script.nn.Load(); n != 1 {
		t.Fatalf("%d attempts, want 1", n)
	}
}

// TestShardFailuresAreTyped: under DegradeFail a backend failing in one
// phase makes Init (for meta), SolveCtx and RouteWords return a
// *ShardError with that shard and phase.
func TestShardFailuresAreTyped(t *testing.T) {
	ds := testDataset(54, 150)
	eng := core.NewEngine(ds, 0)
	words := genQueryWords(t, eng)
	var set kwds.Set
	for _, w := range words {
		id, _ := ds.Vocab.Lookup(w)
		set = set.Union(kwds.NewSet(id))
	}
	mbr := ds.MBR()
	q := core.Query{Loc: pt((mbr.MinX+mbr.MaxX)/2, (mbr.MinY+mbr.MaxY)/2), Keywords: set}
	for _, phase := range []string{"meta", "nn", "collect"} {
		router := func() *Router {
			return &Router{Vocab: ds.Vocab, Backends: []Backend{
				WrapEngine("ok", ds, eng.Inv),
				&countingBackend{Backend: WrapEngine("bad", ds, eng.Inv), fail: phase},
			}}
		}
		check := func(entry string, err error) {
			t.Helper()
			var se *ShardError
			if !errors.As(err, &se) || se.Shard != 1 || se.Phase != phase {
				t.Errorf("%s failing in %s: err = %v, want a *ShardError for shard 1, phase %s", entry, phase, err, phase)
			}
		}
		if err := router().Init(context.Background()); phase == "meta" {
			check("Init", err)
		} else if err != nil {
			t.Fatalf("Init with %s failing: %v", phase, err)
		}
		_, err := router().SolveCtx(context.Background(), q, core.MaxSum, core.OwnerExact)
		check("SolveCtx", err)
		_, err = router().RouteWords(context.Background(), q.Loc, words, core.MaxSum, core.OwnerExact)
		check("RouteWords", err)
	}
}

// doneAfter is a context whose Err turns context.Canceled at its n-th
// call: a deadline that expires while a call is scanning.
type doneAfter struct {
	context.Context
	n int
}

func (c *doneAfter) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestEngineBackendHonoursContext: NN and Collect return the context's
// error when it is done on entry, and when it ends mid-scan — the
// contract the router's ShardTimeout rests on, since a call runs on the
// goroutine that scatters it.
func TestEngineBackendHonoursContext(t *testing.T) {
	b := dataset.NewBuilder("wide")
	for i := 0; i < 4*(cancelPollMask+1); i++ {
		b.Add(geo.Point{X: float64(i % 64), Y: float64(i / 64)}, "cafe")
	}
	eb := NewEngineBackend("wide", Shard{DS: b.Build()})
	q := ShardQuery{Loc: geo.Point{}, Words: []string{"cafe"}}
	for _, n := range []int{1, 2} { // done on entry; done at the first poll mid-scan
		if _, err := eb.NN(&doneAfter{context.Background(), n}, q); !errors.Is(err, context.Canceled) {
			t.Errorf("NN under a context done at Err call %d: err %v, want context.Canceled", n, err)
		}
		if _, err := eb.Collect(&doneAfter{context.Background(), n}, q, 1e9); !errors.Is(err, context.Canceled) {
			t.Errorf("Collect under a context done at Err call %d: err %v, want context.Canceled", n, err)
		}
	}
}
