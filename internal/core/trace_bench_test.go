package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

func benchFixture(b *testing.B) (*Engine, Query) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	e := genEngine(rng, 5000, 40, 4)
	q := randQuery(rng, 40, 4)
	if _, err := e.Solve(q, MaxSum, OwnerExact); err != nil {
		b.Fatalf("fixture query: %v", err)
	}
	return e, q
}

// BenchmarkSolveTraceOff is the baseline the ISSUE's <2% overhead budget
// is measured against: the owner-driven exact search with no trace in
// the context.
func BenchmarkSolveTraceOff(b *testing.B) {
	e, q := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Solve(q, MaxSum, OwnerExact); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveTraceOn runs the same search with a fresh trace per
// query (the explain=1 / slow-log path). Compare with TraceOff via
// benchstat to bound the instrumentation overhead.
func BenchmarkSolveTraceOn(b *testing.B) {
	e, q := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trace.New("query")
		ctx := trace.NewContext(context.Background(), tr)
		if _, err := e.SolveCtx(ctx, q, MaxSum, OwnerExact); err != nil {
			b.Fatal(err)
		}
		tr.Finish()
	}
}

// TestTraceDisabledZeroAllocs: with tracing off, SolveCtx must allocate
// exactly as much as plain Solve — the nil-safe span calls and the
// always-on prune counters may not add a single allocation per query.
func TestTraceDisabledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	rng := rand.New(rand.NewSource(7))
	e := genEngine(rng, 400, 12, 3)
	q := randQuery(rng, 12, 3)
	if _, err := e.Solve(q, MaxSum, OwnerExact); err != nil {
		t.Fatalf("fixture query: %v", err)
	}
	ctx := context.Background()
	base := testing.AllocsPerRun(50, func() {
		if _, err := e.Solve(q, MaxSum, OwnerExact); err != nil {
			t.Fatal(err)
		}
	})
	withCtx := testing.AllocsPerRun(50, func() {
		if _, err := e.SolveCtx(ctx, q, MaxSum, OwnerExact); err != nil {
			t.Fatal(err)
		}
	})
	if withCtx > base {
		t.Fatalf("untraced SolveCtx allocates more than Solve: %.1f vs %.1f allocs/op", withCtx, base)
	}
}

// ringFixture is a query whose every candidate owner is tried: q sits at
// the origin, one "a" object at (50, 0) fixes d_f = 50, and n "b" objects
// fill the half annulus 50 ≤ d < 70 on the far side of it, each at least
// 50√2 ≈ 70.7 from the "a" object. No set costs less than that under
// MaxSum or Dia, so the ring [d_f, incumbent) holds every "b" object.
func ringFixture(n int) (*Engine, Query) {
	rng := rand.New(rand.NewSource(44))
	b := dataset.NewBuilder("ring")
	ka, kb := b.Vocab().Intern("a"), b.Vocab().Intern("b")
	b.AddIDs(geo.Point{X: 50, Y: 0}, kwds.NewSet(ka))
	for i := 0; i < n; i++ {
		r, th := 50+20*rng.Float64(), math.Pi/2+math.Pi*rng.Float64()
		b.AddIDs(geo.Point{X: r * math.Cos(th), Y: r * math.Sin(th)}, kwds.NewSet(kb))
	}
	return NewEngine(b.Build(), 8), Query{Keywords: kwds.NewSet(ka, kb)}
}

// TestTracedSolveAllocs: a traced solve pays for the spans it keeps, not
// for the owners it tries. The per-owner steps of OwnerExact
// (best_with_owner) and of OwnerAppro (greedy_construct) open a span only
// for an owner that improved the incumbent, so on a query trying ≥ 50
// owners the traced solve allocates at most the untraced one, plus the
// trace's fixed spans, plus a few allocations per kept span. Every kept
// span lies inside owner_loop, and OwnerExact keeps exactly one per
// improving owner.
func TestTracedSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	const (
		fixed   = 24 // the trace, its context and the per-query spans
		perSpan = 6  // one kept span: the span, its attrs, its parent's child slot
	)
	e, q := ringFixture(120)
	for _, tc := range []struct {
		cost CostKind
		m    Method
		span string
	}{{MaxSum, OwnerExact, "best_with_owner"}, {Dia, OwnerAppro, "greedy_construct"}} {
		name := tc.cost.String() + "/" + tc.m.String()
		traced := func() (Result, *trace.Trace) {
			tr := trace.New("query")
			res, err := e.SolveCtx(trace.NewContext(context.Background(), tr), q, tc.cost, tc.m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tr.Finish()
			return res, tr
		}
		res, tr := traced()
		if res.Stats.OwnersTried < 50 {
			t.Fatalf("%s: the fixture tries %d owners, want ≥ 50", name, res.Stats.OwnersTried)
		}
		kept := 0
		var walk func(spans []*trace.SpanExport, inLoop bool)
		walk = func(spans []*trace.SpanExport, inLoop bool) {
			for _, sp := range spans {
				if sp.Name == tc.span {
					kept++
					if !inLoop {
						t.Errorf("%s: a %s span lies outside owner_loop", name, tc.span)
					}
				}
				walk(sp.Children, inLoop || sp.Name == "owner_loop")
			}
		}
		walk(tr.Export().Spans, false)
		if tc.m == OwnerExact {
			if want := improvingOwners(t, e, q, tc.cost); kept != want {
				t.Errorf("%s: %d %s spans, want one per improving owner (%d)", name, kept, tc.span, want)
			}
		}

		untraced := testing.AllocsPerRun(20, func() {
			if _, err := e.SolveCtx(context.Background(), q, tc.cost, tc.m); err != nil {
				t.Fatal(err)
			}
		})
		got := testing.AllocsPerRun(20, func() { traced() })
		t.Logf("%s: %d owners, %d kept spans, %.0f allocs/op traced, %.0f untraced", name, res.Stats.OwnersTried, kept, got, untraced)
		if limit := untraced + fixed + perSpan*float64(kept); got > limit {
			t.Errorf("%s: traced solve allocates %.0f, want ≤ %.0f (untraced %.0f + %d + %d per kept span)", name, got, limit, untraced, fixed, perSpan)
		}
	}
}

// improvingOwners counts the owners whose cover search improves the
// incumbent in ownerExact's loop, run here untraced.
func improvingOwners(t *testing.T, e *Engine, q Query, kind CostKind) int {
	n := 0
	_, err := e.run(context.Background(), e.treeSource(), q, func(s *search) (Result, error) {
		if err := s.open(q, costOf(kind), "", true); err != nil {
			return Result{}, err
		}
		cur := s.incCost
		en := s.owners(s.df, true)
		for en.next(cur) {
			if set, c := s.bestWithOwner(&s.own, cur); set != nil {
				n, cur = n+1, c
			}
		}
		return Result{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
