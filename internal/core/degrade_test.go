package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/fault"
)

// hardQuery returns a (engine, query, full-effort result) triple where the
// exact search does enough work that a half-budget trips mid-search.
func hardQuery(t *testing.T, seed int64) (*Engine, Query, Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := genEngine(rng, 900, 20, 4)
	q := randQuery(rng, 20, 4)
	res, err := e.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	if res.Stats.NodesExpanded < 8 {
		t.Skipf("query too easy to trip mid-search (%d nodes)", res.Stats.NodesExpanded)
	}
	return e, q, res
}

// TestDegradeIncumbentBudget: with Degrade=Incumbent and a tripping
// NodeBudget, Solve returns a feasible set with Degraded=true where the
// default policy returns ErrBudgetExceeded, and the degraded cost upper
// bounds the exact cost.
func TestDegradeIncumbentBudget(t *testing.T) {
	e, q, exact := hardQuery(t, 5)
	run := *e
	run.NodeBudget = exact.Stats.NodesExpanded / 2

	// Seed behavior: DegradeFail (the zero value) returns the error.
	if _, err := run.Solve(q, MaxSum, OwnerExact); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("DegradeFail: err = %v, want ErrBudgetExceeded", err)
	}

	run.Degrade = DegradeIncumbent
	res, err := run.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("DegradeIncumbent: err = %v, want anytime answer", err)
	}
	if !res.Degraded {
		t.Error("Degraded = false, want true")
	}
	if res.Stats.DegradeReason != DegradeReasonBudget {
		t.Errorf("DegradeReason = %q, want %q", res.Stats.DegradeReason, DegradeReasonBudget)
	}
	if !e.Feasible(q, res.Set) {
		t.Errorf("degraded set %v is not feasible", res.Set)
	}
	if res.Cost < exact.Cost {
		t.Errorf("degraded cost %v < exact cost %v", res.Cost, exact.Cost)
	}
	if got := e.EvalCost(MaxSum, q.Loc, res.Set); got != res.Cost {
		t.Errorf("reported cost %v != recomputed %v", res.Cost, got)
	}
}

// TestDegradeFailMatchesSeed: with Degrade=Fail the outcome is identical
// to an engine that has never heard of degradation — same set, same
// cost, same error — across methods and costs.
func TestDegradeFailMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := genEngine(rng, 400, 15, 3)
	for i := 0; i < 20; i++ {
		q := randQuery(rng, 15, 3)
		for _, m := range []Method{OwnerExact, OwnerAppro, CaoExact, CaoAppro2} {
			want, wantErr := e.Solve(q, MaxSum, m)

			run := *e
			run.Degrade = DegradeFail
			got, gotErr := run.Solve(q, MaxSum, m)
			if !errors.Is(gotErr, wantErr) && !errors.Is(wantErr, gotErr) {
				t.Fatalf("%v: err %v vs %v", m, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if got.Cost != want.Cost || len(got.Set) != len(want.Set) || got.Degraded {
				t.Fatalf("%v: (%v, %v, degraded=%v) vs (%v, %v)", m, got.Set, got.Cost, got.Degraded, want.Set, want.Cost)
			}
			for j := range got.Set {
				if got.Set[j] != want.Set[j] {
					t.Fatalf("%v: set %v vs %v", m, got.Set, want.Set)
				}
			}
		}
	}
}

// TestDegradeStatsFinalized: even under the default fail policy, a
// budget-tripped query's Stats carry the effort spent before the trip
// (satellite: slowlog/metrics accounting of failed queries).
func TestDegradeStatsFinalized(t *testing.T) {
	e, q, exact := hardQuery(t, 5)
	run := *e
	run.NodeBudget = exact.Stats.NodesExpanded / 2
	res, err := run.Solve(q, MaxSum, OwnerExact)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res.Stats.NodesExpanded == 0 {
		t.Error("Stats.NodesExpanded = 0 on budget trip, want the aborted effort")
	}
	if res.Stats.NodesExpanded < run.NodeBudget {
		t.Errorf("Stats.NodesExpanded = %d, want >= budget %d at the trip", res.Stats.NodesExpanded, run.NodeBudget)
	}
	if res.Stats.Elapsed == 0 {
		t.Error("Stats.Elapsed = 0 on budget trip, want wall time")
	}
}

// TestDegradeCancellation: a cancelled exact search degrades to the
// incumbent with reason "cancelled" / "deadline" instead of the context
// error.
func TestDegradeCancellation(t *testing.T) {
	e, q, _ := hardQuery(t, 5)
	run := *e
	run.Degrade = DegradeIncumbent

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before entry: no incumbent possible, error stands
	if _, err := run.SolveCtx(ctx, q, MaxSum, OwnerExact); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	time.Sleep(time.Millisecond)
	res, err := run.SolveCtx(dctx, q, MaxSum, OwnerExact)
	if errors.Is(err, context.DeadlineExceeded) {
		return // tripped before the seed completed: acceptable fail
	}
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if res.Degraded && res.Stats.DegradeReason != DegradeReasonDeadline {
		t.Errorf("DegradeReason = %q, want %q", res.Stats.DegradeReason, DegradeReasonDeadline)
	}
}

// TestDegradeFallbackAppro: a method that maintains no incumbent (Brute)
// tripping on entry still yields a feasible approximate answer under
// DegradeFallbackAppro, and keeps failing under DegradeIncumbent.
func TestDegradeFallbackAppro(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := genEngine(rng, 300, 12, 3)
	q := randQuery(rng, 12, 3)
	exact, err := e.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	run := *e
	run.NodeBudget = 1
	run.Degrade = DegradeIncumbent
	if _, err := run.Solve(q, MaxSum, Brute); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Brute + Incumbent: err = %v, want ErrBudgetExceeded (no incumbent exists)", err)
	}

	run.Degrade = DegradeFallbackAppro
	res, err := run.Solve(q, MaxSum, Brute)
	if err != nil {
		t.Fatalf("Brute + FallbackAppro: %v", err)
	}
	if !res.Degraded || res.Stats.DegradeReason != DegradeReasonBudget {
		t.Errorf("Degraded=%v reason=%q, want true/%q", res.Degraded, res.Stats.DegradeReason, DegradeReasonBudget)
	}
	if !e.Feasible(q, res.Set) {
		t.Errorf("fallback set %v not feasible", res.Set)
	}
	if res.Cost < exact.Cost {
		t.Errorf("fallback cost %v < exact %v", res.Cost, exact.Cost)
	}
}

// TestDegradeInfeasibleNotMasked: degradation must never fabricate an
// answer for an infeasible query.
func TestDegradeInfeasibleNotMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := genEngine(rng, 100, 5, 2)
	q := randQuery(rng, 5, 2)
	// Force infeasibility with a keyword id beyond the vocabulary.
	q.Keywords = append(append(q.Keywords[:0:0], q.Keywords...), 9999)
	for _, p := range []DegradePolicy{DegradeFail, DegradeIncumbent, DegradeFallbackAppro} {
		run := *e
		run.Degrade = p
		if _, err := run.Solve(q, MaxSum, OwnerExact); !errors.Is(err, ErrInfeasible) {
			t.Errorf("policy %v: err = %v, want ErrInfeasible", p, err)
		}
	}
}

// TestTopKDegrade: a budget-tripped TopK returns the partial ranking,
// each entry marked degraded, under DegradeIncumbent.
func TestTopKDegrade(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := genEngine(rng, 600, 18, 4)
	q := randQuery(rng, 18, 4)
	full, err := e.TopK(q, MaxSum, 3)
	if err != nil {
		t.Fatalf("reference topk: %v", err)
	}
	if len(full) == 0 || full[0].Stats.NodesExpanded < 8 {
		t.Skip("query too easy")
	}

	run := *e
	run.NodeBudget = full[0].Stats.NodesExpanded / 2
	if _, err := run.TopK(q, MaxSum, 3); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("DegradeFail topk: err = %v, want ErrBudgetExceeded", err)
	}

	run.Degrade = DegradeIncumbent
	got, err := run.TopK(q, MaxSum, 3)
	if err != nil {
		t.Fatalf("DegradeIncumbent topk: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("empty degraded ranking, want the partial heap")
	}
	for i, r := range got {
		if !r.Degraded {
			t.Errorf("result %d: Degraded = false", i)
		}
		if !e.Feasible(q, r.Set) {
			t.Errorf("result %d: set %v not feasible", i, r.Set)
		}
	}
	// The degraded best can never beat the true best.
	if got[0].Cost < full[0].Cost {
		t.Errorf("degraded best %v < true best %v", got[0].Cost, full[0].Cost)
	}
}

// TestParseDegradePolicy covers the flag spellings.
func TestParseDegradePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want DegradePolicy
		ok   bool
	}{
		{"", DegradeFail, true},
		{"fail", DegradeFail, true},
		{"incumbent", DegradeIncumbent, true},
		{"fallback", DegradeFallbackAppro, true},
		{"appro", DegradeFallbackAppro, true},
		{"bogus", DegradeFail, false},
	}
	for _, c := range cases {
		got, ok := ParseDegradePolicy(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseDegradePolicy(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

// degradeEntry is one way into the algorithms under the degrade contract:
// a (cost, method) cell through Solve, TopK under a cost, or SolveAlpha
// with a method. run reports the call's answers — one, or a ranking; none
// when a ranking fails — and eval is the cost an answer's set evaluates to.
type degradeEntry struct {
	name string
	run  func(e *Engine, q Query) ([]Result, error)
	eval func(e *Engine, q Query, set []dataset.ObjectID) float64
}

// degradeAlpha is the cost_α the degrade tests run SolveAlpha at.
const degradeAlpha = 0.3

// degradeEntries lists every (cost, method) pair — the unsupported ones
// answer ErrUnsupported, which callers skip — then TopK under the costs it
// ranks and SolveAlpha with the methods it accepts.
func degradeEntries() []degradeEntry {
	var out []degradeEntry
	for c := MaxSum; c <= SumMax; c++ {
		eval := func(e *Engine, q Query, set []dataset.ObjectID) float64 { return e.EvalCost(c, q.Loc, set) }
		for m := OwnerExact; m <= PairsExact; m++ {
			out = append(out, degradeEntry{fmt.Sprintf("Solve/%v/%v", c, m), func(e *Engine, q Query) ([]Result, error) {
				res, err := e.Solve(q, c, m)
				return []Result{res}, err
			}, eval})
		}
	}
	for _, c := range []CostKind{MaxSum, Dia} {
		out = append(out, degradeEntry{fmt.Sprintf("TopK/%v", c), func(e *Engine, q Query) ([]Result, error) {
			return e.TopK(q, c, 3)
		}, func(e *Engine, q Query, set []dataset.ObjectID) float64 { return e.EvalCost(c, q.Loc, set) }})
	}
	for _, m := range []Method{OwnerExact, OwnerAppro, Brute} {
		out = append(out, degradeEntry{fmt.Sprintf("SolveAlpha/%v", m), func(e *Engine, q Query) ([]Result, error) {
			res, err := e.SolveAlpha(q, degradeAlpha, m)
			return []Result{res}, err
		}, func(e *Engine, q Query, set []dataset.ObjectID) float64 {
			return e.EvalCostAlpha(degradeAlpha, q.Loc, set)
		}})
	}
	return out
}

// TestDegradeRecoversEveryEntry stops every entry point's search halfway
// through by its node budget. Under DegradeFail the typed error comes with
// the effort spent (more nodes than the budget) and the wall time; under
// DegradeIncumbent an execution that had found a cover answers with it,
// flagged, feasible and at its own cost. A method that charges no search
// node cannot be stopped by a budget, and answers as it does unbudgeted.
func TestDegradeRecoversEveryEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := genEngine(rng, 900, 20, 4)
	q := randQuery(rng, 20, 4)
	// The probe's ceiling: a search need not finish for half its nodes to
	// stop it mid-search, and Brute would not, soon.
	const ceiling = 4096
	stopped := 0
	for _, en := range degradeEntries() {
		probe := *e
		probe.NodeBudget = ceiling
		full, err := en.run(&probe, q)
		nodes := ceiling
		switch {
		case errors.Is(err, ErrUnsupported):
			continue
		case err == nil:
			nodes = full[0].Stats.NodesExpanded
		case !errors.Is(err, ErrBudgetExceeded):
			t.Fatalf("%s: probe: %v", en.name, err)
		}

		run := *e
		if nodes < 2 {
			run.NodeBudget = 1
			got, err := en.run(&run, q)
			if err != nil || len(got) != len(full) || got[0].Cost != full[0].Cost || got[0].Degraded {
				t.Errorf("%s charges no node, yet a budget of 1 changed its answer: %v, %v", en.name, got, err)
			}
			continue
		}
		stopped++
		run.NodeBudget = nodes / 2
		got, err := en.run(&run, q)
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: DegradeFail at budget %d: err = %v, want ErrBudgetExceeded", en.name, run.NodeBudget, err)
			continue
		}
		// A failed ranking carries no Result; a seeded ranking always
		// holds a cover before its first node.
		found := true
		if len(got) > 0 {
			st := got[0].Stats
			if st.NodesExpanded <= run.NodeBudget {
				t.Errorf("%s: DegradeFail reports %d nodes expanded, want > budget %d", en.name, st.NodesExpanded, run.NodeBudget)
			}
			if st.Elapsed == 0 {
				t.Errorf("%s: DegradeFail reports no Elapsed", en.name)
			}
			found = st.SetsEvaluated > 0
		}

		run.Degrade = DegradeIncumbent
		got, err = en.run(&run, q)
		if !found {
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("%s: no cover before the stop, yet DegradeIncumbent answered %v, %v", en.name, got, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: DegradeIncumbent: err = %v, want the incumbent", en.name, err)
			continue
		}
		for i, r := range got {
			if !r.Degraded || r.Stats.DegradeReason != DegradeReasonBudget {
				t.Errorf("%s[%d]: Degraded = %v, reason %q; want true, %q", en.name, i, r.Degraded, r.Stats.DegradeReason, DegradeReasonBudget)
			}
			if !e.Feasible(q, r.Set) {
				t.Errorf("%s[%d]: set %v is not feasible", en.name, i, r.Set)
			} else if c := en.eval(e, q, r.Set); c != r.Cost {
				t.Errorf("%s[%d]: cost %v, set %v evaluates to %v", en.name, i, r.Cost, r.Set, c)
			}
			if r.Stats.NodesExpanded <= run.NodeBudget {
				t.Errorf("%s[%d]: reports %d nodes expanded, want > budget %d", en.name, i, r.Stats.NodesExpanded, run.NodeBudget)
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no entry was stopped mid-search")
	}
}

// TestTopKFallbackFromSeed: a ranking stopped inside its N(q) seed holds
// no cover, so DegradeIncumbent fails, and DegradeFallbackAppro answers
// with the cost's cheap approximation as a one-set ranking. The stop is a
// budget trip at the first keyword-NN cache probe.
func TestTopKFallbackFromSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := genEngine(rng, 600, 18, 4)
	e.EnableNNCache(256)
	q := randQuery(rng, 18, 4)
	firstProbe := fault.Rule{Point: fault.NNCacheProbe, Kind: fault.KindBudget, Every: 1, Count: 1}
	for _, c := range []CostKind{MaxSum, Dia} {
		run := *e
		run.Degrade = DegradeIncumbent
		disarm := fault.Arm(1, firstProbe)
		_, err := run.TopK(q, c, 3)
		disarm()
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%v: DegradeIncumbent stopped in the seed: err = %v, want ErrBudgetExceeded", c, err)
		}

		run.Degrade = DegradeFallbackAppro
		disarm = fault.Arm(1, firstProbe)
		got, err := run.TopK(q, c, 3)
		disarm()
		if err != nil {
			t.Fatalf("%v: DegradeFallbackAppro: %v", c, err)
		}
		if len(got) != 1 {
			t.Fatalf("%v: fallback ranking holds %d sets, want 1", c, len(got))
		}
		r := got[0]
		if !r.Degraded || r.Stats.DegradeReason != DegradeReasonBudget {
			t.Errorf("%v: Degraded = %v, reason %q; want true, %q", c, r.Degraded, r.Stats.DegradeReason, DegradeReasonBudget)
		}
		if !e.Feasible(q, r.Set) || e.EvalCost(c, q.Loc, r.Set) != r.Cost {
			t.Errorf("%v: fallback set %v at cost %v: feasible %v, evaluates to %v", c, r.Set, r.Cost, e.Feasible(q, r.Set), e.EvalCost(c, q.Loc, r.Set))
		}
		want, err := e.Solve(q, c, CaoAppro2)
		if err != nil || want.Cost != r.Cost {
			t.Errorf("%v: fallback cost %v, Cao-Appro2 answers %v (%v)", c, r.Cost, want.Cost, err)
		}
	}
}

// FuzzDegradeContract runs one budgeted call on a small generated engine,
// the fuzzer choosing the world, the node budget, the degrade policy, the
// cost, the method and the entry point (Solve, TopK, SolveAlpha). Every
// outcome is a typed error or feasible answers, and a degraded answer has
// a reason, a policy that permits it, and the cost its set evaluates to.
func FuzzDegradeContract(f *testing.F) {
	f.Add(int64(5), uint16(40), uint8(DegradeIncumbent), uint8(MaxSum), uint8(OwnerExact), uint8(0))
	f.Add(int64(6), uint16(9), uint8(DegradeFallbackAppro), uint8(MinMax), uint8(Brute), uint8(0))
	f.Add(int64(7), uint16(3), uint8(DegradeIncumbent), uint8(Dia), uint8(OwnerExact), uint8(1))
	f.Add(int64(8), uint16(30), uint8(DegradeIncumbent), uint8(MaxSum), uint8(Brute), uint8(2))
	f.Add(int64(9), uint16(2), uint8(DegradeFallbackAppro), uint8(SumMax), uint8(OwnerAppro), uint8(0))
	// A SumMax incumbent whose running sum misses its set's cost by an ulp.
	f.Add(int64(145), uint16(3), uint8(26), uint8(59), uint8(0), uint8(150))
	// A Sum fallback, N(q), summed in keyword order.
	f.Add(int64(-37), uint16(0), uint8(23), uint8(67), uint8(96), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, budget uint16, policy, cost, method, entry uint8) {
		rng := rand.New(rand.NewSource(seed))
		e := genEngine(rng, 80, 10, 3)
		q := randQuery(rng, 10, 1+rng.Intn(4))
		e.NodeBudget = 1 + int(budget)%2048
		e.Degrade = DegradePolicy(policy % 3)
		c, m := CostKind(int(cost)%numCosts), Method(int(method)%numMethods)
		alpha := float64(1+rng.Intn(10)) / 10
		eval := func(set []dataset.ObjectID) float64 { return e.EvalCost(c, q.Loc, set) }

		var rs []Result
		var err error
		switch entry % 3 {
		case 0:
			var res Result
			res, err = e.Solve(q, c, m)
			rs = []Result{res}
		case 1:
			rs, err = e.TopK(q, c, 1+int(method)%4)
		case 2:
			var res Result
			res, err = e.SolveAlpha(q, alpha, m)
			rs = []Result{res}
			eval = func(set []dataset.ObjectID) float64 { return e.EvalCostAlpha(alpha, q.Loc, set) }
		}
		what := fmt.Sprintf("entry %d, %v/%v, budget %d, %v", entry%3, c, m, e.NodeBudget, e.Degrade)
		if err != nil {
			if !errors.Is(err, ErrBudgetExceeded) && !errors.Is(err, ErrUnsupported) && !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
			return
		}
		for i, r := range rs {
			if !e.Feasible(q, r.Set) {
				t.Fatalf("%s [%d]: infeasible set %v", what, i, r.Set)
			}
			if !r.Degraded {
				continue
			}
			if e.Degrade == DegradeFail || r.Stats.DegradeReason == "" {
				t.Fatalf("%s [%d]: degraded with reason %q", what, i, r.Stats.DegradeReason)
			}
			if got := eval(r.Set); got != r.Cost {
				t.Fatalf("%s [%d]: degraded cost %v, set %v evaluates to %v", what, i, r.Cost, r.Set, got)
			}
		}
	})
}
