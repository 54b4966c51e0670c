package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"coskq/internal/metrics"
)

// recordSolveOutcomes is one solve of every outcome recordSolve labels:
// answered, failed, degraded, and a method outside the enumeration.
var recordSolveOutcomes = []struct {
	cost   CostKind
	method Method
	res    Result
	err    error
}{
	{MaxSum, OwnerExact, Result{}, nil},
	{Dia, CaoAppro2, Result{}, nil},
	{Sum, OwnerAppro, Result{}, ErrInfeasible},
	{MaxSum, OwnerExact, Result{}, context.DeadlineExceeded},
	{MinMax, OwnerExact, Result{}, errors.New("boom")},
	{SumMax, OwnerExact, Result{Degraded: true, Stats: Stats{DegradeReason: DegradeReasonBudget}}, nil},
	{MaxSum, PairsExact, Result{Degraded: true, Stats: Stats{DegradeReason: DegradeReasonShard}}, nil},
	{MaxSum, Method(99), Result{}, ErrUnsupported},
}

// TestRecordSolveExposition: the cached series expose exactly what a
// registry lookup per solve exposed — no series before its first count,
// the same names, the same values.
func TestRecordSolveExposition(t *testing.T) {
	m := NewEngineMetrics(nil)
	ref := NewEngineMetrics(nil)
	for round := 0; round < 3; round++ {
		for _, o := range recordSolveOutcomes[:round*3+2] {
			m.recordSolve(o.cost, o.method, o.res, o.err, time.Millisecond)
			recordSolveByLookup(ref, o.cost, o.method, o.res, o.err, time.Millisecond)
		}
		var got, want strings.Builder
		m.WriteText(&got)
		ref.WriteText(&want)
		if got.String() != want.String() {
			t.Fatalf("round %d: exposition\n%s\nwant\n%s", round, got.String(), want.String())
		}
	}
}

// recordSolveByLookup is recordSolve resolving every labeled series by
// name on each solve: the reference the cache must not change.
func recordSolveByLookup(m *EngineMetrics, cost CostKind, method Method, res Result, err error, elapsed time.Duration) {
	m.queries.Inc()
	m.reg.Counter(fmt.Sprintf("coskq_queries_total{cost=%q,method=%q}", cost.String(), method.String())).Inc()
	m.latency.Observe(elapsed.Seconds())
	m.owners.Observe(float64(res.Stats.OwnersTried))
	m.nodes.Observe(float64(res.Stats.NodesExpanded))
	m.cands.Observe(float64(res.Stats.CandidatesSeen))
	m.sets.Observe(float64(res.Stats.SetsEvaluated))
	if err != nil {
		m.errs.Inc()
		m.reg.Counter(fmt.Sprintf("coskq_query_errors_total{reason=%q}", errorReasons[errorReason(err)])).Inc()
		return
	}
	if res.Degraded {
		m.degraded.Inc()
		m.reg.Counter(fmt.Sprintf("coskq_degraded_queries_total{reason=%q}", res.Stats.DegradeReason)).Inc()
	}
}

// TestRecordSolveWarmAllocs: once its series are resolved, recording a
// solve — answered, failed or degraded — allocates nothing.
func TestRecordSolveWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := NewEngineMetrics(metrics.NewRegistry())
	warm := recordSolveOutcomes[:len(recordSolveOutcomes)-1] // the last is looked up each time
	for _, o := range warm {
		m.recordSolve(o.cost, o.method, o.res, o.err, time.Millisecond)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, o := range warm {
			m.recordSolve(o.cost, o.method, o.res, o.err, time.Millisecond)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed recordSolve allocates %v per %d solves, want 0", allocs, len(warm))
	}
}
