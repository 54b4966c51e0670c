package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/testutil"
)

// The chaos suite arms seeded fault schedules against real searches and
// asserts the engine's robustness invariants hold under every injected
// failure: results are feasible or the error is typed, degraded costs
// never beat the optimum, injected hard panics are never swallowed, and
// no goroutines leak. Run it under -race (the CI chaos job does).

// chaosInvariants runs one faulted solve and checks the universal
// postconditions. exactCost is the unfaulted optimum for (q, cost).
func chaosInvariants(t *testing.T, e *Engine, q Query, cost CostKind, m Method, exactCost float64) {
	t.Helper()
	res, err := e.Solve(q, cost, m)
	if err != nil {
		if !errors.Is(err, ErrBudgetExceeded) &&
			!errors.Is(err, ErrInfeasible) &&
			!errors.Is(err, ErrUnsupported) &&
			!errors.Is(err, context.Canceled) &&
			!errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("method %v: untyped error under fault: %v", m, err)
		}
		return
	}
	if !e.Feasible(q, res.Set) {
		t.Errorf("method %v: infeasible set %v under fault", m, res.Set)
	}
	if got := e.EvalCost(cost, q.Loc, res.Set); got != res.Cost {
		t.Errorf("method %v: reported cost %v != recomputed %v", m, res.Cost, got)
	}
	if res.Cost < exactCost-1e-9 {
		t.Errorf("method %v: cost %v beats the optimum %v", m, res.Cost, exactCost)
	}
	if res.Degraded && res.Stats.DegradeReason == "" {
		t.Errorf("method %v: Degraded without a reason", m)
	}
}

// TestChaosSeededSchedules sweeps seeds, fault kinds, points, methods and
// degrade policies, asserting the invariants for each combination.
func TestChaosSeededSchedules(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rng := rand.New(rand.NewSource(21))
	base := genEngine(rng, 700, 18, 4)
	queries := make([]Query, 6)
	exact := make([]float64, len(queries))
	for i := range queries {
		queries[i] = randQuery(rng, 18, 4)
		res, err := base.Solve(queries[i], MaxSum, OwnerExact)
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		exact[i] = res.Cost
	}

	points := []fault.Point{fault.RTreeVisit, fault.OwnerEnum}
	kinds := []fault.Kind{fault.KindBudget, fault.KindCancel}
	methods := []Method{OwnerExact, CaoExact, OwnerAppro}
	for _, seed := range []uint64{1, 2, 3} {
		for _, p := range points {
			for _, k := range kinds {
				for _, policy := range []DegradePolicy{DegradeFail, DegradeIncumbent, DegradeFallbackAppro} {
					disarm := fault.Arm(seed, fault.Rule{Point: p, Kind: k, After: 3, Prob: 0.05})
					e := *base
					e.Degrade = policy
					for i, q := range queries {
						for _, m := range methods {
							chaosInvariants(t, &e, q, MaxSum, m, exact[i])
						}
					}
					disarm()
				}
			}
		}
	}
}

// TestChaosDeterministicSchedule: the same seed and rule produce the
// same outcome on repeated runs.
func TestChaosDeterministicSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	e := genEngine(rng, 500, 16, 3)
	e.Degrade = DegradeIncumbent
	q := randQuery(rng, 16, 3)

	type outcome struct {
		cost     float64
		degraded bool
		errIs    bool
	}
	run := func() outcome {
		disarm := fault.Arm(7, fault.Rule{Point: fault.RTreeVisit, Kind: fault.KindBudget, Every: 40})
		defer disarm()
		res, err := e.Solve(q, MaxSum, OwnerExact)
		return outcome{res.Cost, res.Degraded, err != nil}
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: %+v != first %+v", i, got, first)
		}
	}
}

// TestChaosLatencyInjection: KindLatency slows the search without
// changing its answer.
func TestChaosLatencyInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := genEngine(rng, 300, 12, 3)
	q := randQuery(rng, 12, 3)
	want, err := e.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("clean solve: %v", err)
	}

	disarm := fault.Arm(5, fault.Rule{Point: fault.RTreeVisit, Kind: fault.KindLatency, Every: 10, Latency: 100e3}) // 100µs
	defer disarm()
	got, err := e.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("latency-faulted solve: %v", err)
	}
	if got.Cost != want.Cost || got.Degraded {
		t.Errorf("latency changed the answer: (%v, degraded=%v) vs %v", got.Cost, got.Degraded, want.Cost)
	}
	if fault.Hits(fault.RTreeVisit) == 0 {
		t.Error("latency rule never hit")
	}
}

// TestChaosCrashNotSwallowed: a KindPanic firing is a stand-in for a
// programming error and must propagate out of every entry point that runs
// on the caller's goroutine as a panic, not be converted into a degraded
// answer or a typed error. (A batch solves on its own worker goroutines,
// where an unrecovered crash ends the process, as it should.)
func TestChaosCrashNotSwallowed(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rng := rand.New(rand.NewSource(17))
	e := genEngine(rng, 400, 14, 3)
	e.Degrade = DegradeIncumbent // must NOT mask the crash
	q := randQuery(rng, 14, 3)

	entries := []struct {
		name  string
		point fault.Point
		run   func()
	}{
		{"Solve", fault.OwnerEnum, func() { e.Solve(q, MaxSum, OwnerExact) }},
		{"TopKCtx", fault.RTreeVisit, func() { e.TopKCtx(context.Background(), q, MaxSum, 3) }},
		{"SolveAlpha", fault.OwnerEnum, func() { e.SolveAlpha(q, 0.3, OwnerExact) }},
	}
	for _, en := range entries {
		disarm := fault.Arm(1, fault.Rule{Point: en.point, Kind: fault.KindPanic, Every: 1, After: 2})
		func() {
			defer disarm()
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: injected panic was swallowed", en.name)
					return
				}
				if _, ok := r.(fault.Crash); !ok {
					t.Errorf("%s: panic payload %T, want fault.Crash", en.name, r)
				}
			}()
			en.run()
		}()
	}
}

// chaosEntry is one way into the algorithms: an exported entry point bound
// to a cost and a method it accepts. run reports every (result, error)
// pair the call produced — one per batch item or ranked set.
type chaosEntry struct {
	name string
	run  func(ctx context.Context, e *Engine, q Query) ([]Result, []error)
}

// chaosEntries lists every exported entry point × every (cost, method) it
// accepts on e, found by asking the unfaulted engine.
func chaosEntries(e *Engine, q Query) []chaosEntry {
	var out []chaosEntry
	for _, c := range []CostKind{MaxSum, Dia, Sum, MinMax, SumMax} {
		for _, m := range []Method{OwnerExact, OwnerAppro, CaoExact, CaoAppro1, CaoAppro2, Brute, PairsExact} {
			if _, err := e.Solve(q, c, m); errors.Is(err, ErrUnsupported) {
				continue
			}
			c, m := c, m
			out = append(out, chaosEntry{fmt.Sprintf("SolveCtx/%v/%v", c, m), func(ctx context.Context, e *Engine, q Query) ([]Result, []error) {
				res, err := e.SolveCtx(ctx, q, c, m)
				return []Result{res}, []error{err}
			}}, chaosEntry{fmt.Sprintf("SolveBatchCtx/%v/%v", c, m), func(ctx context.Context, e *Engine, q Query) ([]Result, []error) {
				// A repeated query, which the batch's own NN cache answers,
				// and a far-away one, which it cannot.
				far := Query{Loc: geo.Point{X: 100 - q.Loc.X, Y: 100 - q.Loc.Y}, Keywords: q.Keywords}
				var rs []Result
				var errs []error
				for _, it := range e.SolveBatchCtx(ctx, []Query{q, q, far}, c, m, 2) {
					rs, errs = append(rs, it.Result), append(errs, it.Err)
				}
				return rs, errs
			}})
		}
	}
	for _, c := range []CostKind{MaxSum, Dia} {
		c := c
		out = append(out, chaosEntry{fmt.Sprintf("TopKCtx/%v", c), func(ctx context.Context, e *Engine, q Query) ([]Result, []error) {
			rs, err := e.TopKCtx(ctx, q, c, 3)
			if err != nil {
				return nil, []error{err}
			}
			return rs, make([]error, len(rs))
		}})
	}
	for _, m := range []Method{OwnerExact, OwnerAppro, Brute} {
		m := m
		out = append(out, chaosEntry{fmt.Sprintf("SolveAlpha/%v", m), func(_ context.Context, e *Engine, q Query) ([]Result, []error) {
			res, err := e.SolveAlpha(q, 0.3, m)
			return []Result{res}, []error{err}
		}})
	}
	return out
}

// TestChaosEveryEntryPointIsShielded: no algorithm shields itself — a
// budget or cancellation unwind is caught by the frame every search is
// entered under (Config.enter, and solveInner / topKInner beneath it so a
// degrade can act on the error). So whatever entry point, cost, method
// and degrade policy a fault lands in, the caller sees a typed
// error or a flagged degraded answer, never a panic.
func TestChaosEveryEntryPointIsShielded(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rng := rand.New(rand.NewSource(57))
	base := genEngine(rng, 60, 8, 2) // small: Brute under MinMax is in the table
	queries := []Query{randQuery(rng, 8, 3), randQuery(rng, 8, 3), randQuery(rng, 8, 2)}
	entries := chaosEntries(base, queries[0])

	// faulted runs one entry point on one query under rule and reports how
	// many of its executions the fault cut short.
	faulted := func(e *Engine, en chaosEntry, q Query, rule fault.Rule) (cut int) {
		what := fmt.Sprintf("%s %v, %v at %s", en.name, e.Degrade, rule.Kind, rule.Point)
		var (
			rs   []Result
			errs []error
		)
		func() {
			defer fault.Arm(9, rule)()
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: escaped as panic %v", what, r)
				}
			}()
			rs, errs = en.run(context.Background(), e, q)
		}()
		for i, err := range errs {
			if err != nil {
				if !errors.Is(err, ErrBudgetExceeded) && !errors.Is(err, context.Canceled) && !errors.Is(err, ErrInfeasible) {
					t.Errorf("%s: untyped error %v", what, err)
				}
				if !errors.Is(err, ErrInfeasible) {
					cut++
				}
				continue
			}
			if rs[i].Degraded {
				if e.Degrade == DegradeFail || rs[i].Stats.DegradeReason == "" {
					t.Errorf("%s: degraded answer with reason %q", what, rs[i].Stats.DegradeReason)
				}
				cut++
			}
			if !e.Feasible(q, rs[i].Set) {
				t.Errorf("%s: infeasible set %v", what, rs[i].Set)
			}
		}
		return cut
	}

	points := []fault.Point{fault.OwnerEnum, fault.RTreeVisit}
	cut := map[fault.Point]int{} // executions a fault cut short, per point
	for _, p := range points {
		for _, k := range []fault.Kind{fault.KindBudget, fault.KindCancel} {
			rule := fault.Rule{Point: p, Kind: k, After: 1, Every: 1}
			for _, policy := range []DegradePolicy{DegradeFail, DegradeIncumbent} {
				e := *base
				e.Degrade = policy
				for _, en := range entries {
					for _, q := range queries {
						cut[p] += faulted(&e, en, q, rule)
					}
				}
			}
		}
	}
	// The table must not pass vacuously: every point fired somewhere.
	for _, p := range points {
		if cut[p] == 0 {
			t.Errorf("no execution was cut short by %s; tighten the rule", p)
		}
	}

	// The fault no injection point simulates: a cancellation that lands
	// while the candidate stream is still being materialized. Every search
	// reads its candidates through the enumerator, whose every pop polls
	// the context, so the third Err call — the entry check, then the polls
	// at pops 256 and 512 — cuts the approximations too, which expand no
	// search nodes and so never reach chargeNode's poll.
	wide, wq := wideDrainFixture()
	rows := map[string]bool{"SolveCtx/MaxSum/PairsExact": true}
	for _, c := range []CostKind{Sum, SumMax, MinMax} {
		for _, m := range []Method{OwnerExact, OwnerAppro} {
			rows[fmt.Sprintf("SolveCtx/%v/%v", c, m)] = true
		}
	}
	for _, en := range entries {
		if !rows[en.name] {
			continue
		}
		delete(rows, en.name)
		ctx, stop := cancelAfter(2)
		_, errs := en.run(ctx, wide, wq)
		stop()
		if !errors.Is(errs[0], context.Canceled) {
			t.Errorf("%s: cancelled during the drain, got error %v", en.name, errs[0])
		}
	}
	for name := range rows {
		t.Errorf("%s is not an entry point any more", name)
	}
}

// countdownCtx is a cancellable context whose Err turns Canceled after
// its k-th call.
type countdownCtx struct {
	context.Context
	left atomic.Int32
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func cancelAfter(k int32) (context.Context, context.CancelFunc) {
	inner, stop := context.WithCancel(context.Background())
	c := &countdownCtx{Context: inner}
	c.left.Store(k)
	return c, stop
}

// wideDrainFixture is a query whose seed disk is wide: two keywords on
// 2,000 objects spread over the plane and a third on a single object in
// the far corner, so N(q) costs more than any object's query distance and
// every search's drain pops all of them.
func wideDrainFixture() (*Engine, Query) {
	rng := rand.New(rand.NewSource(58))
	b := dataset.NewBuilder("wide")
	a, bb, c := b.Vocab().Intern("a"), b.Vocab().Intern("b"), b.Vocab().Intern("c")
	for i := 0; i < 2000; i++ {
		b.AddIDs(geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, kwds.NewSet([]kwds.ID{a, bb}[i%2]))
	}
	b.AddIDs(geo.Point{X: 100, Y: 100}, kwds.NewSet(c))
	return NewEngine(b.Build(), 8), Query{Keywords: kwds.NewSet(a, bb, c)}
}

// TestChaosMetricsConsistency: under injected budget trips the metrics
// sink still balances — every call is counted exactly once, and the
// degraded counter matches the number of degraded answers returned.
func TestChaosMetricsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	e := genEngine(rng, 600, 16, 4)
	e.Degrade = DegradeIncumbent
	e.Metrics = NewEngineMetrics(nil)

	disarm := fault.Arm(11, fault.Rule{Point: fault.RTreeVisit, Kind: fault.KindBudget, After: 5, Prob: 0.1})
	defer disarm()

	const calls = 40
	var degraded, failed uint64
	for i := 0; i < calls; i++ {
		q := randQuery(rng, 16, 4)
		res, err := e.Solve(q, MaxSum, OwnerExact)
		switch {
		case err != nil:
			failed++
		case res.Degraded:
			degraded++
		}
	}
	if got := e.Metrics.QueriesTotal(); got != calls {
		t.Errorf("queries_total = %d, want %d", got, calls)
	}
	if got := e.Metrics.DegradedTotal(); got != degraded {
		t.Errorf("degraded_queries_total = %d, want %d", got, degraded)
	}
	if degraded == 0 && failed == 0 {
		t.Error("fault schedule never fired; tighten the rule")
	}
}

// TestChaosDisarmedIsFree: after disarm, the engine answers exactly as
// an unfaulted engine (the injection points are pass-through).
func TestChaosDisarmedIsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	e := genEngine(rng, 300, 12, 3)
	q := randQuery(rng, 12, 3)
	want, err := e.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("clean solve: %v", err)
	}
	fault.Arm(3, fault.Rule{Point: fault.RTreeVisit, Kind: fault.KindBudget, Every: 1})()
	if fault.Armed() {
		t.Fatal("still armed after disarm")
	}
	got, err := e.Solve(q, MaxSum, OwnerExact)
	if err != nil || got.Cost != want.Cost {
		t.Errorf("disarmed solve: (%v, %v), want (%v, nil)", got.Cost, err, want.Cost)
	}
}
