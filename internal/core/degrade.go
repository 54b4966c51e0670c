package core

// Graceful degradation (DESIGN.md §11): instead of discarding everything
// when NodeBudget, a deadline or a cancellation unwinds a search, the
// engine can return the best feasible incumbent it had at that moment —
// an *anytime answer* — or fall back to a cheap approximation when no
// incumbent exists yet. The distance owner-driven search holds a
// feasible incumbent from the NN seed onward, so almost any interrupted
// exact query has a meaningful answer to give.
//
// Mechanics: the call's pooled search (search.go) carries an anytime
// holder. Algorithms publish every incumbent improvement into it
// (noteIncumbent) and register their live Stats (trackStats); when the
// budget/cancel panic unwinds through recoverBudget, solve consults the
// holder — the improvements survive the unwind because the holder lives
// on the search, not on the unwound stack frames.

import (
	"context"
	"errors"

	"coskq/internal/dataset"
)

// DegradePolicy selects what Solve does when an exact search is cut
// short by the node budget, a deadline, or a cancellation.
type DegradePolicy int

const (
	// DegradeFail (the default) preserves the all-or-nothing contract:
	// the typed error (ErrBudgetExceeded, context error) is returned and
	// Result carries no answer set.
	DegradeFail DegradePolicy = iota
	// DegradeIncumbent returns the best feasible incumbent found before
	// the trip, with Result.Degraded set and Stats.DegradeReason naming
	// the cause. When no incumbent exists yet (the trip happened before
	// the NN seed completed) the error is returned as under DegradeFail.
	DegradeIncumbent
	// DegradeFallbackAppro is DegradeIncumbent plus a safety net: with no
	// incumbent, the engine runs the cost function's cheap approximation
	// (Cao-Appro2 for MaxSum/Dia, Cao-Appro1 — the NN set N(q) — for Sum,
	// SumMax and MinMax) detached from the budget and context, so a
	// feasible query always yields a feasible — if approximate — answer.
	// The fallback is near-linear work, bounding how far past a deadline
	// it can run.
	DegradeFallbackAppro
)

// String implements fmt.Stringer.
func (p DegradePolicy) String() string {
	switch p {
	case DegradeFail:
		return "fail"
	case DegradeIncumbent:
		return "incumbent"
	case DegradeFallbackAppro:
		return "fallback"
	}
	return "unknown"
}

// ParseDegradePolicy maps the CLI/flag spelling to a policy.
func ParseDegradePolicy(s string) (DegradePolicy, bool) {
	switch s {
	case "fail", "":
		return DegradeFail, true
	case "incumbent":
		return DegradeIncumbent, true
	case "fallback", "appro", "fallback-appro":
		return DegradeFallbackAppro, true
	}
	return DegradeFail, false
}

// DegradeReason names why a degraded execution was cut short. It is a
// named type (not a bare string) so that every value flowing into
// metrics labels and response headers comes from the compile-time
// vocabulary below.
type DegradeReason string

// Degrade reasons reported in Stats.DegradeReason.
const (
	DegradeReasonBudget    DegradeReason = "budget"
	DegradeReasonDeadline  DegradeReason = "deadline"
	DegradeReasonCancelled DegradeReason = "cancelled"
	// DegradeReasonShard marks an answer computed without one or more
	// failed shards of a scatter-gather execution (internal/shard): the
	// set is feasible and its cost is an upper bound on the full answer,
	// but objects on the failed shards were not considered.
	DegradeReasonShard DegradeReason = "shard"
)

// degradeReason classifies err as a cause the degrade policy may absorb;
// "" means the error is not degradable (infeasible, unsupported — no
// incumbent could exist or the answer would be wrong).
func degradeReason(err error) DegradeReason {
	switch {
	case errors.Is(err, ErrBudgetExceeded):
		return DegradeReasonBudget
	case errors.Is(err, context.DeadlineExceeded):
		return DegradeReasonDeadline
	case errors.Is(err, context.Canceled):
		return DegradeReasonCancelled
	}
	return ""
}

// anytime is the per-call incumbent holder, pooled with its search. set
// reuses one backing buffer across improvements (noteIncumbent copies
// into it), so noting is allocation-free in steady state; consumers copy
// out via canonical before the holder recirculates.
type anytime struct {
	valid bool
	set   []dataset.ObjectID
	cost  float64
	kind  CostKind
	// stats points at the running algorithm's live Stats so the unwind
	// path can recover the effort counters accumulated before the trip
	// (they escape the unwound frames through this pointer).
	stats *Stats
	// topk, when the execution is a TopK, points at the live heap so a
	// degrade can return the partial ranking.
	topk *topKHeap
}

// noteIncumbent publishes a feasible incumbent into the call's holder.
// set need not be canonical and may alias caller scratch; it is copied.
// On a search without a holder (the fallback) it is a no-op.
func (s *search) noteIncumbent(set []dataset.ObjectID, cost float64, kind CostKind) {
	h := s.any
	if h == nil || len(set) == 0 {
		return
	}
	h.valid = true
	h.set = append(h.set[:0], set...)
	h.cost, h.kind = cost, kind
}

// trackStats registers the running algorithm's Stats with the holder so
// an unwind can recover the counters. Nested executions (Cao-Exact
// seeding via Appro2) re-register in call order; the innermost running
// algorithm wins, which is the one whose counters the unwind would
// otherwise lose.
func (s *search) trackStats(st *Stats) {
	if h := s.any; h != nil {
		h.stats = st
	}
}

// trackTopK registers a TopK execution's live heap with the holder.
func (s *search) trackTopK(t *topKHeap) {
	if h := s.any; h != nil {
		h.topk = t
	}
}

// degradeSolve applies the engine's degrade policy to a failed solve.
// It is called by solve after solveInner returned err; res carries
// whatever the unwind produced (usually nothing). Satellite invariant:
// whatever the policy, the aborted execution's Stats are recovered from
// the holder so failed queries are fully accounted in slowlog/metrics.
func (s *search) degradeSolve(q Query, cost CostKind, method Method, res Result, err error) (Result, error) {
	reason := degradeReason(err)
	if reason == "" {
		return res, err
	}
	if h := s.any; h != nil && h.stats != nil {
		res.Stats = *h.stats
	}
	if s.Degrade == DegradeFail {
		return res, err
	}
	if h := s.any; h != nil && h.valid {
		res.Set = canonical(h.set)
		res.Cost = h.cost
		res.Cost2 = h.kind
		res.Degraded = true
		res.Stats.DegradeReason = reason
		return res, nil
	}
	if s.Degrade == DegradeFallbackAppro {
		fb, fbErr := s.fallbackAppro(q, cost)
		if fbErr == nil {
			fb.Stats.merge(&res.Stats)
			fb.Stats.Phases.Seed += res.Stats.Phases.Seed
			fb.Stats.Phases.Search += res.Stats.Phases.Search
			fb.Degraded = true
			fb.Stats.DegradeReason = reason
			return fb, nil
		}
	}
	return res, err
}

// fallbackAppro runs the cost function's cheap approximation on a child
// search that shares only the call's Config, source (with its NN cache)
// and trace: no node budget, no context (the original is already tripped
// — the approximation is near-linear, so the overrun is bounded), no
// holder, no scratch.
// The shield converts any stray unwind (there should be none) into an
// error instead of escaping.
func (s *search) fallbackAppro(q Query, cost CostKind) (res Result, err error) {
	defer recoverBudget(&err)
	fb := search{Config: s.Config, src: s.src, tr: s.tr}
	switch cost {
	case MaxSum, Dia:
		return fb.caoAppro2(q, cost)
	}
	return fb.caoAppro1(q, cost)
}
