package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/testutil"
)

// quadrantDataset puts one tight cluster in each quadrant of [0,1000]².
// Every cluster covers {food, fuel}; "lodging" lives only in the two
// far clusters (2 and 3). Two consequences the chaos schedule relies
// on: the nearest-neighbor seeds span opposite quadrants, so the gather
// radius keeps all four shards in the collect phase (8 serial shard
// calls per query); and every keyword lives on at least two shards, so
// any single crashed shard leaves the query coverable by the survivors.
func quadrantDataset() *dataset.Dataset {
	b := dataset.NewBuilder("quadrants")
	centers := []geo.Point{pt(100, 100), pt(900, 100), pt(100, 900), pt(900, 900)}
	for ci, c := range centers {
		for i := 0; i < 9; i++ {
			p := pt(c.X+float64(i%3)*5, c.Y+float64(i/3)*7)
			ws := []string{"food"}
			if i%2 == 1 {
				ws = []string{"fuel"}
			}
			if i == 4 {
				ws = []string{"food", "fuel"}
			}
			if ci >= 2 && i%3 == 0 {
				ws = append(ws, "lodging")
			}
			b.Add(p, ws...)
		}
	}
	return b.Build()
}

// chaosRouter builds the deterministic chaos fixture: a 4-shard grid
// router in the serial (fanout=1) schedule, so fault hit ordinals map
// 1:1 onto shard calls and a seeded schedule replays identically.
func chaosRouter(t *testing.T, policy core.DegradePolicy) (*Router, *core.Engine, core.Query) {
	t.Helper()
	ds := quadrantDataset()
	r, err := NewLocalRouter(ds, 4, Grid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r.fanout = 1
	r.Config.Degrade = policy
	eng := core.NewEngine(ds, 0)
	var qset kwds.Set
	for _, w := range []string{"food", "fuel", "lodging"} {
		id, ok := ds.Vocab.Lookup(w)
		if !ok {
			t.Fatalf("fixture word %q missing", w)
		}
		qset = qset.Union(kwds.NewSet(id))
	}
	// Warm the meta cache outside any armed schedule so the kill
	// ordinals below target the NN/collect phases, not Init.
	if err := r.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	return r, eng, core.Query{Loc: pt(500, 500), Keywords: qset}
}

// TestChaosKilledShardDegrades kills exactly one shard call — every
// kind of death, at every position in the serial schedule, in both the
// NN and the collect phase — and requires either a deterministic
// Degraded partial answer (lenient policy) or a typed ShardError
// (strict policy). Never a wrong cost, a torn merge, or a leak.
func TestChaosKilledShardDegrades(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	full := func() core.Result {
		r, eng, q := chaosRouter(t, core.DegradeFail)
		_ = eng
		res, err := r.Solve(q, core.MaxSum, core.OwnerExact)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	kinds := []fault.Kind{fault.KindCancel, fault.KindBudget, fault.KindPanic}
	// Hits 1-4 are the NN scatter (all four shards alive), hits 5-8 the
	// collect scatter over the survivors.
	for _, kind := range kinds {
		for kill := uint64(1); kill <= 8; kill++ {
			kind, kill := kind, kill
			t.Run(fmt.Sprintf("%v/hit%d", kind, kill), func(t *testing.T) {
				r, eng, q := chaosRouter(t, core.DegradeIncumbent)
				defer fault.Arm(42, fault.Rule{
					Point: fault.ShardFanout, Kind: kind,
					After: kill - 1, Every: 1, Count: 1,
				})()
				res, err := r.Solve(q, core.MaxSum, core.OwnerExact)
				if err != nil {
					t.Fatalf("lenient policy surfaced error: %v", err)
				}
				if !res.Degraded || res.Stats.DegradeReason != core.DegradeReasonShard {
					t.Fatalf("want degraded reason %q, got degraded=%v reason=%q",
						core.DegradeReasonShard, res.Degraded, res.Stats.DegradeReason)
				}
				if !eng.Feasible(q, res.Set) {
					t.Fatalf("degraded set %v does not cover the query", res.Set)
				}
				// The partial answer is an upper bound on the full one and
				// must evaluate consistently (no torn merge).
				if got := eng.EvalCost(core.MaxSum, q.Loc, res.Set); got != res.Cost {
					t.Fatalf("reported cost %v but set evaluates to %v", res.Cost, got)
				}
				if res.Cost < full.Cost {
					t.Fatalf("degraded cost %v beats the full answer %v", res.Cost, full.Cost)
				}

				// Replay: re-arm the identical schedule on a fresh router —
				// same answer, bit for bit.
				r2, _, q2 := chaosRouter(t, core.DegradeIncumbent)
				defer fault.Arm(42, fault.Rule{
					Point: fault.ShardFanout, Kind: kind,
					After: kill - 1, Every: 1, Count: 1,
				})()
				res2, err := r2.Solve(q2, core.MaxSum, core.OwnerExact)
				if err != nil {
					t.Fatalf("replay errored: %v", err)
				}
				if res2.Cost != res.Cost || len(res2.Set) != len(res.Set) {
					t.Fatalf("replay diverged: %v/%v vs %v/%v", res2.Cost, res2.Set, res.Cost, res.Set)
				}
				for i := range res.Set {
					if res2.Set[i] != res.Set[i] {
						t.Fatalf("replay set diverged: %v vs %v", res2.Set, res.Set)
					}
				}
			})
		}
	}
}

// TestChaosStrictPolicyFailsDeterministically: under DegradeFail the
// same kill yields a typed *ShardError naming the killed shard.
func TestChaosStrictPolicyFailsDeterministically(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	for kill := uint64(1); kill <= 4; kill++ {
		r, _, q := chaosRouter(t, core.DegradeFail)
		disarm := fault.Arm(7, fault.Rule{
			Point: fault.ShardFanout, Kind: fault.KindPanic,
			After: kill - 1, Every: 1, Count: 1,
		})
		_, err := r.Solve(q, core.MaxSum, core.OwnerExact)
		disarm()
		var se *ShardError
		if !errors.As(err, &se) {
			t.Fatalf("kill %d: want *ShardError, got %v", kill, err)
		}
		if se.Shard != int(kill-1) || se.Phase != "nn" {
			t.Fatalf("kill %d: failure attributed to shard %d phase %s", kill, se.Shard, se.Phase)
		}
	}
}

// TestChaosSlowShardTimesOutWithoutLeaking: an injected 100ms stall
// against a 5ms per-shard deadline turns the slow shard into a failed
// one; the abandoned call drains into its buffered channel and exits
// (the leak check would catch it otherwise).
func TestChaosSlowShardTimesOutWithoutLeaking(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	r, eng, q := chaosRouter(t, core.DegradeIncumbent)
	r.ShardTimeout = 5 * time.Millisecond
	defer fault.Arm(3, fault.Rule{
		Point: fault.ShardFanout, Kind: fault.KindLatency,
		Latency: 100 * time.Millisecond,
		After:   1, Every: 1, Count: 1, // stall exactly the second shard call
	})()
	res, err := r.Solve(q, core.MaxSum, core.OwnerExact)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Stats.DegradeReason != core.DegradeReasonShard {
		t.Fatalf("want shard-degraded answer, got degraded=%v reason=%q", res.Degraded, res.Stats.DegradeReason)
	}
	if !eng.Feasible(q, res.Set) {
		t.Fatalf("degraded set %v infeasible", res.Set)
	}
}

// TestChaosSlowShardWithoutDeadlineStaysCorrect: latency alone (no
// ShardTimeout) must not change the answer — slow is not wrong.
func TestChaosSlowShardWithoutDeadlineStaysCorrect(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	r, eng, q := chaosRouter(t, core.DegradeIncumbent)
	defer fault.Arm(3, fault.Rule{
		Point: fault.ShardFanout, Kind: fault.KindLatency,
		Latency: 20 * time.Millisecond,
		After:   0, Every: 3, // stall every third shard call
	})()
	res, err := r.Solve(q, core.MaxSum, core.OwnerExact)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("latency-only schedule degraded the answer")
	}
	want, err := eng.Solve(q, core.MaxSum, core.OwnerExact)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != want.Cost {
		t.Fatalf("slow answer cost %v ≠ engine cost %v", res.Cost, want.Cost)
	}
}

// TestChaosAllShardsDead: when every shard fails, even the lenient
// policy must report the failure (never a false ErrInfeasible), and the
// error deterministically names the first failed shard.
func TestChaosAllShardsDead(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	r, _, q := chaosRouter(t, core.DegradeIncumbent)
	defer fault.Arm(9, fault.Rule{
		Point: fault.ShardFanout, Kind: fault.KindCancel,
		Every: 1, // every shard call dies
	})()
	_, err := r.Solve(q, core.MaxSum, core.OwnerExact)
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("want *ShardError, got %v", err)
	}
	if errors.Is(err, core.ErrInfeasible) {
		t.Fatal("total shard failure misreported as infeasibility")
	}
	if se.Shard != 0 {
		t.Fatalf("first failure should name shard 0, got %d", se.Shard)
	}
}

// TestChaosPoolSolveFaults arms fault.RTreeVisit, which every advance of
// the pool solve's candidate streams passes, during routed queries: each
// unwind at each of the first hits, for a relevant-stream method and two
// keyword-stream ones, under the strict and the incumbent policy. An
// unwind is a typed error under DegradeFail and a degraded answer no
// cheaper than the full one under DegradeIncumbent (the NN seed is an
// incumbent before any stream moves); a hit past the stream's end leaves
// the full answer. An injected crash is the fault package's Crash: like
// every programming error it propagates (nothing in the engine recovers
// it), and the router answers the next query in full.
func TestChaosPoolSolveFaults(t *testing.T) {
	kinds := []fault.Kind{fault.KindBudget, fault.KindCancel, fault.KindPanic}
	methods := []core.Method{core.OwnerExact, core.CaoExact, core.CaoAppro2}
	for _, policy := range []core.DegradePolicy{core.DegradeFail, core.DegradeIncumbent} {
		for _, m := range methods {
			r, eng, q := chaosRouter(t, policy)
			full, err := r.Solve(q, core.MaxSum, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range kinds {
				for hit := uint64(1); hit <= 3; hit++ {
					name := fmt.Sprintf("%v/%v/%v/hit%d", policy, m, kind, hit)
					var (
						res   core.Result
						err   error
						crash any
					)
					disarm := fault.Arm(5, fault.Rule{Point: fault.RTreeVisit, Kind: kind, After: hit - 1, Every: 1, Count: 1})
					func() {
						defer func() { crash = recover() }()
						res, err = r.Solve(q, core.MaxSum, m)
					}()
					hits := fault.Hits(fault.RTreeVisit)
					disarm()
					if hits == 0 {
						t.Fatalf("%s: the pool solve never passed fault.RTreeVisit", name)
					}
					fired := hits >= hit
					switch {
					case crash != nil:
						if _, ok := crash.(fault.Crash); !ok || kind != fault.KindPanic {
							t.Fatalf("%s: panic %v", name, crash)
						}
						if again, err := r.Solve(q, core.MaxSum, m); err != nil || again.Cost != full.Cost {
							t.Fatalf("%s: after the crash the router answers %v, %v; want cost %v", name, again.Cost, err, full.Cost)
						}
					case !fired:
						if err != nil || res.Degraded || res.Cost != full.Cost {
							t.Fatalf("%s: no fault fired, yet %v degraded=%v cost %v (full %v)", name, err, res.Degraded, res.Cost, full.Cost)
						}
					case kind == fault.KindPanic:
						t.Fatalf("%s: the injected crash was swallowed: %v, %v", name, res, err)
					case policy == core.DegradeFail:
						want := core.ErrBudgetExceeded
						if kind == fault.KindCancel {
							want = context.Canceled
						}
						if !errors.Is(err, want) {
							t.Fatalf("%s: want %v, got %v", name, want, err)
						}
					default:
						if err != nil || !res.Degraded || res.Stats.DegradeReason == core.DegradeReasonShard {
							t.Fatalf("%s: want a search-degraded answer, got %v (degraded=%v, %q)", name, err, res.Degraded, res.Stats.DegradeReason)
						}
						if !eng.Feasible(q, res.Set) || eng.EvalCost(core.MaxSum, q.Loc, res.Set) != res.Cost || res.Cost < full.Cost {
							t.Fatalf("%s: degraded set %v at %v is infeasible, misreported or beats the full cost %v", name, res.Set, res.Cost, full.Cost)
						}
					}
				}
			}
		}
	}
}
