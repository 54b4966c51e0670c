package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"coskq/internal/metrics"
)

// Histogram bucket layouts shared by every engine sink. Latency buckets
// span the observed CoSKQ range — exact-search latency varies by orders
// of magnitude with |q.ψ| and keyword frequency, so the grid is
// log-spaced from 25µs to 10s. Effort buckets are powers of four, wide
// enough for the node counts of budgeted exact searches.
var (
	latencyBuckets = []float64{
		25e-6, 100e-6, 250e-6, 1e-3, 2.5e-3, 10e-3, 25e-3,
		100e-3, 250e-3, 1, 2.5, 10,
	}
	effortBuckets = []float64{
		1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 1 << 22,
	}
)

// EngineMetrics is the per-engine observability sink: cumulative query
// and error counters (with per-cost/per-method breakdown) plus latency
// and search-effort histograms, all recorded with atomic operations so a
// single sink serves concurrent queries exactly. Attach one via
// Engine.Metrics; unlike the per-query Stats struct, which vanishes with
// its Result, the sink accumulates across the engine's lifetime.
type EngineMetrics struct {
	reg *metrics.Registry

	queries  *metrics.Counter
	errs     *metrics.Counter
	degraded *metrics.Counter
	latency  *metrics.Histogram
	owners   *metrics.Histogram
	nodes    *metrics.Histogram
	cands    *metrics.Histogram
	sets     *metrics.Histogram

	batchQueries *metrics.Counter

	// The labeled series of the three families below, resolved from the
	// registry at their first count (seriesCache).
	byCostMethod seriesCache // coskq_queries_total{cost,method}, by costMethod
	byError      seriesCache // coskq_query_errors_total{reason}, by errorReason
	byDegrade    seriesCache // coskq_degraded_queries_total{reason}, by degradeReasons
}

// seriesCache holds the handles of one labeled counter family, indexed
// by label value. A handle is resolved — its name formatted, the
// registry locked — at its series' first count and loaded atomically
// after that, so no series is exposed before its first count. An index
// outside the cache (a label outside the fixed vocabulary) is looked up
// on every count.
type seriesCache []atomic.Pointer[metrics.Counter]

// inc counts one on series i of the family, naming it with name.
func (c seriesCache) inc(reg *metrics.Registry, i int, name func() string) {
	if i < 0 || i >= len(c) {
		reg.Counter(name()).Inc()
		return
	}
	h := c[i].Load()
	if h == nil {
		h = reg.Counter(name())
		c[i].Store(h)
	}
	h.Inc()
}

// The (cost, method) index spans every CostKind and every Method.
const numCosts, numMethods = int(SumMax) + 1, int(PairsExact) + 1

// costMethod indexes a (cost, method) pair in byCostMethod; -1 when
// either is outside its enumeration.
func costMethod(cost CostKind, method Method) int {
	if cost < 0 || int(cost) >= numCosts || method < 0 || int(method) >= numMethods {
		return -1
	}
	return int(cost)*numMethods + int(method)
}

// degradeReasons is the vocabulary byDegrade is indexed by.
var degradeReasons = [...]DegradeReason{DegradeReasonBudget, DegradeReasonDeadline, DegradeReasonCancelled, DegradeReasonShard}

// NewEngineMetrics returns a sink recording into reg (nil for a fresh
// private registry). Sharing one registry between the engine sink and the
// HTTP layer yields a single /metrics exposition.
func NewEngineMetrics(reg *metrics.Registry) *EngineMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &EngineMetrics{
		reg:      reg,
		queries:  reg.Counter("coskq_queries_total"),
		errs:     reg.Counter("coskq_query_errors_total"),
		degraded: reg.Counter("coskq_degraded_queries_total"),
		latency:  reg.Histogram("coskq_query_seconds", latencyBuckets),
		owners:   reg.Histogram("coskq_query_owners_tried", effortBuckets),
		nodes:    reg.Histogram("coskq_query_nodes_expanded", effortBuckets),
		cands:    reg.Histogram("coskq_query_candidates_seen", effortBuckets),
		sets:     reg.Histogram("coskq_query_sets_evaluated", effortBuckets),

		batchQueries: reg.Counter("coskq_batch_queries_total"),

		byCostMethod: make(seriesCache, numCosts*numMethods),
		byError:      make(seriesCache, len(errorReasons)),
		byDegrade:    make(seriesCache, len(degradeReasons)),
	}
}

// Registry returns the underlying registry (for exposition or for
// registering further metrics alongside the engine's).
func (m *EngineMetrics) Registry() *metrics.Registry { return m.reg }

// WriteText renders the accumulated metrics in the text exposition
// format.
func (m *EngineMetrics) WriteText(w io.Writer) error { return m.reg.WriteText(w) }

// QueriesTotal returns the cumulative number of recorded executions.
func (m *EngineMetrics) QueriesTotal() uint64 { return m.queries.Value() }

// DegradedTotal returns the cumulative number of degraded (anytime)
// answers recorded.
func (m *EngineMetrics) DegradedTotal() uint64 { return m.degraded.Value() }

// BatchWarmStarts always returns 0: batches no longer warm-start their
// members (DESIGN.md §15). It remains only because the benchmark harness
// still reads it.
func (m *EngineMetrics) BatchWarmStarts() uint64 { return 0 }

// errorReasons is the bounded label vocabulary of execution errors.
var errorReasons = [...]string{"infeasible", "budget", "unsupported", "deadline", "cancelled", "other"}

// errorReason maps an execution error to its index in errorReasons.
func errorReason(err error) int {
	switch {
	case errors.Is(err, ErrInfeasible):
		return 0
	case errors.Is(err, ErrBudgetExceeded):
		return 1
	case errors.Is(err, ErrUnsupported), errors.Is(err, ErrTooManyKeywords):
		return 2
	case errors.Is(err, context.DeadlineExceeded):
		return 3
	case errors.Is(err, context.Canceled):
		return 4
	default:
		return 5
	}
}

// recordSolve accumulates one execution. Latency, the per-cost/per-method
// counter and the effort histograms count every execution — failed and
// degraded queries report their (recovered) effort too, so overload shows
// up in the effort distributions instead of vanishing from them. Degraded
// answers additionally feed coskq_degraded_queries_total, by reason.
func (m *EngineMetrics) recordSolve(cost CostKind, method Method, res Result, err error, elapsed time.Duration) {
	m.queries.Inc()
	m.byCostMethod.inc(m.reg, costMethod(cost, method), func() string {
		return fmt.Sprintf("coskq_queries_total{cost=%q,method=%q}", cost.String(), method.String())
	})
	m.latency.Observe(elapsed.Seconds())
	m.owners.Observe(float64(res.Stats.OwnersTried))
	m.nodes.Observe(float64(res.Stats.NodesExpanded))
	m.cands.Observe(float64(res.Stats.CandidatesSeen))
	m.sets.Observe(float64(res.Stats.SetsEvaluated))
	if err != nil {
		m.errs.Inc()
		r := errorReason(err)
		m.byError.inc(m.reg, r, func() string {
			return fmt.Sprintf("coskq_query_errors_total{reason=%q}", errorReasons[r])
		})
		return
	}
	if res.Degraded {
		m.degraded.Inc()
		r := res.Stats.DegradeReason
		m.byDegrade.inc(m.reg, slices.Index(degradeReasons[:], r), func() string {
			return fmt.Sprintf("coskq_degraded_queries_total{reason=%q}", r)
		})
	}
}
