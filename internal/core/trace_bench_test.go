package core

import (
	"context"
	"math/rand"
	"testing"

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
