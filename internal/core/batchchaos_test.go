package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"coskq/internal/fault"
	"coskq/internal/testutil"
)

// Chaos coverage for the batch tier's fault surface: the NN-cache probe
// point (fault.NNCacheProbe) fires inside lookupNN whenever an NN cache is
// attached — the engine's, or the one every uncached batch builds for
// itself. These tests arm seeded schedules there and assert the batch
// keeps the engine's robustness invariants per item: typed errors only,
// feasible sets, recomputable costs never beating the optimum, and
// deterministic replay of a fixed schedule.

// batchChaosInvariants checks one faulted batch against the unfaulted
// per-query reference costs.
func batchChaosInvariants(t *testing.T, e *Engine, queries []Query, out []BatchItem, cost CostKind, exact []float64) {
	t.Helper()
	for i := range out {
		if err := out[i].Err; err != nil {
			if !errors.Is(err, ErrBudgetExceeded) &&
				!errors.Is(err, ErrInfeasible) &&
				!errors.Is(err, context.Canceled) &&
				!errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("item %d: untyped error under fault: %v", i, err)
			}
			continue
		}
		res := out[i].Result
		if !e.Feasible(queries[i], res.Set) {
			t.Errorf("item %d: infeasible set %v under fault", i, res.Set)
		}
		if got := e.EvalCost(cost, queries[i].Loc, res.Set); got != res.Cost {
			t.Errorf("item %d: reported cost %v != recomputed %v", i, res.Cost, got)
		}
		if res.Cost < exact[i]-1e-9 {
			t.Errorf("item %d: cost %v beats the optimum %v", i, res.Cost, exact[i])
		}
		if res.Degraded && res.Stats.DegradeReason == "" {
			t.Errorf("item %d: Degraded without a reason", i)
		}
	}
}

// TestChaosBatchCachePoint sweeps seeded budget/cancel schedules armed at
// the NN-cache probe point against batches over the batch's own cache and
// an engine cache, across degrade policies and worker counts.
func TestChaosBatchCachePoint(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rng := rand.New(rand.NewSource(41))
	base := genEngine(rng, 500, 10, 3)
	queries := skewedBatch(rng, 16, 10)

	exact := make([]float64, len(queries))
	for i, q := range queries {
		res, err := base.Solve(q, MaxSum, OwnerExact)
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		exact[i] = res.Cost
	}

	for _, seed := range []uint64{1, 2, 3} {
		for _, kind := range []fault.Kind{fault.KindBudget, fault.KindCancel} {
			for _, workers := range []int{1, 3} {
				for _, policy := range []DegradePolicy{DegradeFail, DegradeIncumbent, DegradeFallbackAppro} {
					for _, cache := range []int{0, 256} {
						disarm := fault.Arm(seed, fault.Rule{Point: fault.NNCacheProbe, Kind: kind, After: 2, Prob: 0.05})
						e := *base
						e.Degrade = policy
						e.EnableNNCache(cache)
						out := e.SolveBatch(queries, MaxSum, OwnerExact, workers)
						disarm()
						batchChaosInvariants(t, &e, queries, out, MaxSum, exact)
					}
				}
			}
		}
	}
}

// TestChaosBatchCacheReplay: a fixed schedule at the cache point replays
// to identical per-item outcomes run after run (serial workers — the
// schedule's firing order is then deterministic), so chaos findings in
// the batch tier are reproducible from their seed.
func TestChaosBatchCacheReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := genEngine(rng, 400, 10, 3)
	base.Degrade = DegradeIncumbent
	queries := skewedBatch(rng, 12, 10)

	type outcome struct {
		cost     float64
		degraded bool
		failed   bool
	}
	run := func() []outcome {
		disarm := fault.Arm(9, fault.Rule{Point: fault.NNCacheProbe, Kind: fault.KindBudget, Every: 30})
		defer disarm()
		e := *base
		e.EnableNNCache(256)
		out := e.SolveBatch(queries, MaxSum, OwnerExact, 1)
		got := make([]outcome, len(out))
		for i := range out {
			got[i] = outcome{out[i].Result.Cost, out[i].Result.Degraded, out[i].Err != nil}
		}
		return got
	}
	first := run()
	for trial := 0; trial < 3; trial++ {
		got := run()
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d item %d: %+v != first %+v", trial, i, got[i], first[i])
			}
		}
	}
}
