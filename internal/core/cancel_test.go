package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// cancelOnBind is live until the engine binds it to a search — Config.run's
// trace lookup is its first Value call — and cancelled from then on. The
// entry checks therefore pass, and only the algorithms' own polls can
// see the cancellation. Done is never closed: it only marks the context
// cancellable.
type cancelOnBind struct {
	context.Context
	bound atomic.Bool
	done  chan struct{}
}

func newCancelOnBind() *cancelOnBind {
	return &cancelOnBind{Context: context.Background(), done: make(chan struct{})}
}

func (c *cancelOnBind) Done() <-chan struct{} { return c.done }

func (c *cancelOnBind) Err() error {
	if c.bound.Load() {
		return context.Canceled
	}
	return nil
}

func (c *cancelOnBind) Value(key any) any {
	c.bound.Store(true)
	return c.Context.Value(key)
}

// ringEngine is a dataset on which every polling loop runs past two poll
// periods: 600 "a" objects inside the unit disk around the origin, and
// 4,000 "f" objects in the annulus of radii 10 and 30. For the query
// {a, f} at the origin, every exact and approximate owner stream reads
// the a-disk and the inner f-ring before its incumbent break, Cao-Appro2
// tries each f object of the ring [10, 20) as an owner, and MinMax tries
// every a object.
func ringEngine() (*Engine, Query) {
	rng := rand.New(rand.NewSource(5))
	b := dataset.NewBuilder("ring")
	a, f := b.Vocab().Intern("a"), b.Vocab().Intern("f")
	polar := func(r0, r1 float64) geo.Point {
		r, th := r0+(r1-r0)*math.Sqrt(rng.Float64()), 2*math.Pi*rng.Float64()
		return geo.Point{X: r * math.Cos(th), Y: r * math.Sin(th)}
	}
	for i := 0; i < 600; i++ {
		b.AddIDs(polar(0, 1), kwds.NewSet(a))
	}
	for i := 0; i < 4000; i++ {
		b.AddIDs(polar(10, 30), kwds.NewSet(f))
	}
	return NewEngine(b.Build(), 8), Query{Keywords: kwds.NewSet(a, f)}
}

// TestCancelledSearchUnwinds is the cancellation contract of every polling
// loop: a search whose context is cancelled after entry returns
// context.Canceled through SolveCtx, SolveBatchCtx and TopKCtx, under
// every method. Each row first runs uncancelled to show that its polled
// counter passes two poll periods on ringEngine. CaoAppro1 is absent: it
// is |q.ψ| keyword-NN lookups with no loop to poll.
func TestCancelledSearchUnwinds(t *testing.T) {
	e, q := ringEngine()
	const periods = 2 * (cancelPollMask + 1)
	for _, tc := range []struct {
		cost   CostKind
		method Method
	}{
		{MaxSum, OwnerExact}, {MaxSum, OwnerAppro}, {MaxSum, CaoExact}, {MaxSum, CaoAppro2},
		{MaxSum, PairsExact}, {MaxSum, Brute}, {Dia, OwnerExact}, {Sum, OwnerAppro},
		{SumMax, OwnerExact}, {MinMax, OwnerExact}, {MinMax, OwnerAppro},
	} {
		name := tc.cost.String() + "/" + tc.method.String()
		res, err := e.Solve(q, tc.cost, tc.method)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := res.Stats
		if n := max(st.CandidatesSeen, st.OwnersTried, st.NodesExpanded); n <= periods {
			t.Fatalf("%s: polled counters peak at %d, want > %d", name, n, periods)
		}
		if _, err := e.SolveCtx(newCancelOnBind(), q, tc.cost, tc.method); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: SolveCtx err = %v, want Canceled", name, err)
		}
		out := e.SolveBatchCtx(newCancelOnBind(), []Query{q}, tc.cost, tc.method, 1)
		if !errors.Is(out[0].Err, context.Canceled) {
			t.Errorf("%s: SolveBatchCtx err = %v, want Canceled", name, out[0].Err)
		}
	}
	for _, cost := range []CostKind{MaxSum, Dia} {
		if _, err := e.TopKCtx(newCancelOnBind(), q, cost, 3); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: TopKCtx err = %v, want Canceled", cost, err)
		}
	}
}

// TestTracedSolveClosesSpans: a traced solve that returns without a
// budget or cancellation unwind ends every span it begins, so Finish has
// none to close. Every supported (cost, method) pair runs on a feasible
// and on an infeasible query, and TopK on both.
func TestTracedSolveClosesSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	e := genEngine(rng, 200, 8, 3)
	feasible := randQuery(rng, 8, 3)
	infeasible := Query{Loc: feasible.Loc, Keywords: kwds.NewSet(0, 99)}
	traced := func(name string, run func(context.Context) error) {
		tr := trace.New(name)
		err := run(trace.NewContext(context.Background(), tr))
		tr.Finish()
		if n := tr.Export().UnclosedSpans; n != 0 {
			t.Errorf("%s (err %v): %d spans left open", name, err, n)
		}
	}
	for cost := MaxSum; cost <= SumMax; cost++ {
		for m := OwnerExact; m <= PairsExact; m++ {
			if _, err := e.Solve(feasible, cost, m); errors.Is(err, ErrUnsupported) {
				continue
			}
			for _, q := range []Query{feasible, infeasible} {
				traced(cost.String()+"/"+m.String(), func(ctx context.Context) error {
					_, err := e.SolveCtx(ctx, q, cost, m)
					return err
				})
			}
		}
	}
	for _, q := range []Query{feasible, infeasible} {
		traced("topk", func(ctx context.Context) error {
			_, err := e.TopKCtx(ctx, q, MaxSum, 3)
			return err
		})
	}
}
