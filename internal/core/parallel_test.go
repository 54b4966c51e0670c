package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"coskq/internal/dataset"
	"coskq/internal/testutil"
)

func equalIDs(a, b []dataset.ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelMatchesSerial is the determinism contract of DESIGN.md §10:
// for every query, every worker count returns the identical cost AND the
// identical canonical set as the serial search. Run under -race this also
// exercises the snapshot-sharing discipline of the owner/candidate pools.
func TestParallelMatchesSerial(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	for _, seed := range []int64{3, 17, 99} {
		rng := rand.New(rand.NewSource(seed))
		e := genEngine(rng, 900, 25, 4)
		queries := make([]Query, 12)
		for i := range queries {
			queries[i] = randQuery(rng, 25, 2+i%3)
		}
		// Every path that reaches the worker pool: the Solve matrix, plus
		// cost_α, which runs the same ownerExact at default Parallelism.
		type row struct {
			name  string
			solve func(*Engine, Query) (Result, error)
		}
		var rows []row
		for _, cost := range []CostKind{MaxSum, Dia} {
			for _, m := range []Method{OwnerExact, CaoExact} {
				rows = append(rows, row{fmt.Sprintf("%v/%v", cost, m), func(e *Engine, q Query) (Result, error) {
					return e.Solve(q, cost, m)
				}})
			}
		}
		for _, alpha := range []float64{0.2, 0.8} {
			rows = append(rows, row{fmt.Sprintf("alpha%v/%v", alpha, OwnerExact), func(e *Engine, q Query) (Result, error) {
				return e.SolveAlpha(q, alpha, OwnerExact)
			}})
		}
		for _, r := range rows {
			t.Run(fmt.Sprintf("seed%d/%s", seed, r.name), func(t *testing.T) {
				for qi, q := range queries {
					serial := *e
					serial.Parallelism = 1
					want, errS := r.solve(&serial, q)
					for _, workers := range []int{2, 4, 8} {
						par := *e
						par.Parallelism = workers
						got, errP := r.solve(&par, q)
						if (errS == nil) != (errP == nil) {
							t.Fatalf("q%d workers=%d: err = %v, serial err = %v", qi, workers, errP, errS)
						}
						if errS != nil {
							if !errors.Is(errP, errS) {
								t.Fatalf("q%d workers=%d: err = %v, want %v", qi, workers, errP, errS)
							}
							continue
						}
						if got.Cost != want.Cost {
							t.Fatalf("q%d workers=%d: cost = %v, serial = %v", qi, workers, got.Cost, want.Cost)
						}
						if !equalIDs(got.Set, want.Set) {
							t.Fatalf("q%d workers=%d: set = %v, serial = %v (cost %v)", qi, workers, got.Set, want.Set, got.Cost)
						}
						if got.Stats.Workers != workers {
							t.Errorf("q%d workers=%d: Stats.Workers = %d", qi, workers, got.Stats.Workers)
						}
					}
				}
			})
		}
	}
}

// TestParallelNodeAccounting: the merged per-worker NodesExpanded must
// equal the shared global counter the budget trips on — no expansion may
// be double- or under-counted when stats merge after the join.
func TestParallelNodeAccounting(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rng := rand.New(rand.NewSource(11))
	e := genEngine(rng, 700, 20, 4)
	e.Parallelism = 4
	for i := 0; i < 8; i++ {
		q := randQuery(rng, 20, 3)
		res, err := e.Solve(q, MaxSum, OwnerExact)
		if err != nil {
			t.Fatalf("q%d: %v", i, err)
		}
		if res.Stats.NodesExpanded < 0 {
			t.Fatalf("q%d: negative NodesExpanded", i)
		}
	}
}

// TestParallelBudgetTrip: a budget that trips mid-search while workers
// are running must surface as ErrBudgetExceeded from the coordinator —
// the worker panic is parked, the pool drains, and the join re-raises it.
func TestParallelBudgetTrip(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	rng := rand.New(rand.NewSource(5))
	e := genEngine(rng, 900, 20, 4)
	q := randQuery(rng, 20, 4)

	// Measure the search's full effort serially, then set the budget to a
	// fraction of it so the trip happens mid-enumeration, not on entry.
	serial := *e
	serial.Parallelism = 1
	res, err := serial.Solve(q, MaxSum, OwnerExact)
	if err != nil {
		t.Fatalf("unbudgeted: %v", err)
	}
	if res.Stats.NodesExpanded < 8 {
		t.Skipf("query too easy to trip a mid-search budget (%d nodes)", res.Stats.NodesExpanded)
	}

	for _, workers := range []int{2, 4, 8} {
		par := *e
		par.Parallelism = workers
		par.NodeBudget = res.Stats.NodesExpanded / 2
		if _, err := par.Solve(q, MaxSum, OwnerExact); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("workers=%d budget=%d: err = %v, want ErrBudgetExceeded", workers, par.NodeBudget, err)
		}
		// cost_α reaches the same pool through SolveAlpha (no degrade layer
		// above it): the parked worker panic must surface there too.
		if _, err := par.SolveAlpha(q, 0.5, OwnerExact); !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("workers=%d budget=%d: SolveAlpha err = %v, want ErrBudgetExceeded", workers, par.NodeBudget, err)
		}
		par.NodeBudget = 1
		for _, m := range []Method{OwnerExact, CaoExact} {
			if _, err := par.Solve(q, MaxSum, m); !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("workers=%d %v budget=1: err = %v, want ErrBudgetExceeded", workers, m, err)
			}
		}
	}
}

// TestOwnerExactAllocs pins the zero-alloc hot path: after warmup, the
// pooled serial search must run within a small fixed allocation count per
// query (result set, canonical copies, iterator state — not the candidate
// pool, bit indexes, or partial-set scratch, which all recycle).
func TestOwnerExactAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	rng := rand.New(rand.NewSource(21))
	e := genEngine(rng, 700, 20, 4)
	e.Parallelism = 1
	queries := make([]Query, 4)
	for i := range queries {
		queries[i] = randQuery(rng, 20, 3)
	}
	// Ceilings are the values measured on this fixture with the per-call
	// engine clone the pooled search replaced (one heap copy per solve):
	// the search must not cost more than the clone did, and reverting any
	// one scratch pool (candidates, bitCands, partial sets) blows them.
	for _, tc := range []struct {
		m         Method
		maxAllocs float64
	}{{OwnerExact, 15}, {PairsExact, 43}, {CaoExact, 47}} {
		// Warm the scratch pools.
		for _, q := range queries {
			if _, err := e.Solve(q, MaxSum, tc.m); err != nil {
				t.Fatalf("%v warmup: %v", tc.m, err)
			}
		}
		q := queries[0]
		got := testing.AllocsPerRun(30, func() {
			if _, err := e.Solve(q, MaxSum, tc.m); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %.1f allocs/op", tc.m, got)
		if got > tc.maxAllocs {
			t.Errorf("%v: %.1f allocs/op, want ≤ %.0f", tc.m, got, tc.maxAllocs)
		}
	}
}
