package core

// Graceful degradation (DESIGN.md §11): instead of discarding everything
// when NodeBudget, a deadline or a cancellation unwinds a search, the
// engine can return the best feasible incumbent it had at that moment —
// an *anytime answer* — or fall back to a cheap approximation when no
// incumbent exists yet. The distance owner-driven search holds a
// feasible incumbent from the NN seed onward, so almost any interrupted
// exact query has a meaningful answer to give.
//
// Mechanics: every algorithm keeps its counters and its incumbent in the
// execution record of the call's pooled search (search.go), written in
// place, so they survive the budget/cancel panic that unwinds the
// algorithm's frames. Every entry point — Solve, TopK, SolveAlpha —
// reaches the algorithms through Config.run, whose one recover turns the
// unwind into an error and whose one degrade function, below, answers
// from the record.

import (
	"context"
	"errors"
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
	// the cause. When no incumbent exists yet (the trip came before the
	// first cover: inside the NN seed, or before Brute's first leaf) the
	// error is returned as under DegradeFail.
	DegradeIncumbent
	// DegradeFallbackAppro is DegradeIncumbent plus a safety net: with no
	// incumbent, the engine runs the cost row's cheap approximation
	// (cells: Cao-Appro2 for MaxSum/Dia, Cao-Appro1 — the NN set N(q) —
	// for Sum, SumMax and MinMax) detached from the budget and context, so a
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

// degrade applies Config.Degrade to the execution err interrupted,
// reading its record. Whatever the policy, the effort spent before the
// trip comes back in Stats, so failed queries are fully accounted in the
// slow log and metrics. Policy permitting, the incumbent — or, with none,
// the cost's cheap approximation — becomes the anytime answer, at the cost
// its set evaluates to. An error no incumbent could answer (infeasible,
// unsupported) returns as it is.
func (s *search) degrade(err error) (Result, error) {
	reason := degradeReason(err)
	if reason == "" {
		return Result{}, err
	}
	res := Result{Stats: s.stats}
	switch {
	case s.Degrade == DegradeFail:
		return res, err
	case s.found:
		res.Set = canonical(s.inc)
	case s.Degrade == DegradeFallbackAppro:
		fb, fbErr := s.fallbackAppro()
		if fbErr != nil {
			return res, err
		}
		fb.Stats.merge(res.Stats)
		res = fb
	default:
		return res, err
	}
	// The search's running cost of a set can miss EvalCost's by an ulp
	// under the sum rows; an anytime answer reports the set's own.
	res.Cost = s.src.evalSet(s.cost, s.q.Loc, res.Set)
	res.Degraded, res.Stats.DegradeReason = true, reason
	return res, nil
}

// fallbackAppro runs the cost row's cheap approximation (cells) on a
// child search that shares only the call's Config, source (with its NN
// cache) and trace: no node budget, no context (the original is already
// tripped — the approximation is near-linear, so the overrun is bounded)
// and a record of its own. It runs under the same recover as every
// execution, which turns any stray unwind (there should be none) into an
// error.
func (s *search) fallbackAppro() (Result, error) {
	fb := search{Config: s.Config, src: s.src, tr: s.tr}
	q, cost := s.q, s.cost
	return fb.exec(func(fb *search) (Result, error) { return cells[cost.kind].fallback(fb, q, cost) })
}
