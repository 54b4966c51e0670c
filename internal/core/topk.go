package core

// Top-k CoSKQ (an extension following Cao et al., TODS 2015): return the
// k cheapest feasible sets instead of only the best one. It is the
// owner-driven skeleton of owner.go with two things plugged in: the k-th
// best cost wherever the single search has its incumbent cost (the ring,
// the iterator limit, the partial-set bound), and the heap as the cover
// search's leaf action. One semantic refinement: covers are ranked in
// their irredundant form (no member can be removed without losing
// coverage). Under the max-composed costs a redundant superset never
// costs less than its irredundant subset, so excluding them is the useful
// ranking.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/kwds"
)

// topKHeap keeps the best k candidate sets found so far, deduplicated by
// canonical membership. It knows the query and the cost, so the cover
// search can hand it raw covers (offerCover).
type topKHeap struct {
	k    int
	sets []Result
	seen map[string]bool

	src  source
	q    Query
	qi   *kwds.QueryIndex
	cost costFn
}

// bound returns the pruning threshold: the k-th best cost once k sets are
// known, +Inf before.
func (h *topKHeap) bound() float64 {
	if len(h.sets) < h.k {
		return math.Inf(1)
	}
	return h.sets[len(h.sets)-1].Cost
}

func setKey(ids []dataset.ObjectID) string {
	var sb strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&sb, "%d,", id)
	}
	return sb.String()
}

// offerCover ranks one feasible cover: its irredundant form, at that
// form's cost, if it makes the top k and was not seen before.
func (h *topKHeap) offerCover(cover []dataset.ObjectID) {
	set := irredundant(h.src, h.qi, cover)
	cost := h.src.evalSet(h.cost, h.q.Loc, set)
	key := setKey(set)
	if h.seen[key] {
		return
	}
	if len(h.sets) == h.k && cost >= h.bound() {
		return
	}
	h.seen[key] = true
	h.sets = append(h.sets, Result{Set: set, Cost: cost})
	sort.SliceStable(h.sets, func(i, j int) bool { return h.sets[i].Cost < h.sets[j].Cost })
	if len(h.sets) > h.k {
		evicted := h.sets[h.k]
		delete(h.seen, setKey(evicted.Set))
		h.sets = h.sets[:h.k]
	}
}

// TopK returns the k cheapest irredundant feasible sets for q under the
// MaxSum or Dia cost, best first (fewer when fewer exist). It reuses the
// distance owner-driven enumeration with the k-th best cost as the ring
// and pruning bound.
func (e *Engine) TopK(q Query, cost CostKind, k int) ([]Result, error) {
	return e.TopKCtx(context.Background(), q, cost, k)
}

// TopKCtx is TopK with cancellation, using the same per-call mechanism as
// SolveCtx: when ctx is cancelled, the enumeration unwinds promptly and
// the context's error is returned.
func (e *Engine) TopKCtx(ctx context.Context, q Query, cost CostKind, k int) (res []Result, err error) {
	err = e.enter(ctx, e.treeSource(), q, func(s *search) (err error) {
		res, err = s.topK(q, cost, k)
		return err
	})
	return res, err
}

// topK runs the enumeration and, when it is cut short, applies the
// engine's degrade policy: the partial ranking accumulated in the heap
// is itself the anytime answer (each entry marked Degraded), and with
// DegradeFallbackAppro an empty heap falls back to one approximate set.
func (s *search) topK(q Query, cost CostKind, k int) ([]Result, error) {
	start := time.Now()
	res, err := s.topKInner(q, cost, k)
	if err == nil {
		return res, nil
	}
	reason := degradeReason(err)
	if reason == "" || s.Degrade == DegradeFail {
		return res, err
	}
	var stats Stats
	if h := s.any; h != nil && h.stats != nil {
		stats = *h.stats
	}
	stats.Elapsed = time.Since(start)
	stats.DegradeReason = reason
	if h := s.any; h != nil && h.topk != nil && len(h.topk.sets) > 0 {
		out := make([]Result, len(h.topk.sets))
		for i, r := range h.topk.sets {
			r.Degraded = true
			r.Stats = stats
			out[i] = r
		}
		return out, nil
	}
	if s.Degrade == DegradeFallbackAppro {
		fb, fbErr := s.fallbackAppro(q, cost)
		if fbErr == nil {
			fb.Degraded = true
			fb.Stats.merge(&stats)
			fb.Stats.DegradeReason = reason
			fb.Stats.Elapsed = time.Since(start)
			return []Result{fb}, nil
		}
	}
	return nil, err
}

func (s *search) topKInner(q Query, cost CostKind, k int) (res []Result, err error) {
	defer recoverBudget(&err)
	if cost != MaxSum && cost != Dia {
		return nil, fmt.Errorf("%w: TopK supports MaxSum and Dia, got %v", ErrUnsupported, cost)
	}
	if k <= 0 {
		return nil, nil
	}
	start := time.Now()
	qi, fn := kwds.NewQueryIndex(q.Keywords), costOf(cost)
	algo := s.tr.Begin("topk")
	var stats Stats
	s.trackStats(&stats)
	seed, _, df, _, err := s.nnSeed(q, fn, &stats)
	if err != nil {
		algo.End()
		return nil, err
	}
	stats.SetsEvaluated = 1

	// The seed enters in its irredundant form, which may be cheaper than
	// N(q) itself.
	top := &topKHeap{k: k, seen: make(map[string]bool), src: s.src, q: q, qi: qi, cost: fn}
	s.trackTopK(top)
	verifySp := s.tr.Begin("verify")
	top.offerCover(seed)
	verifySp.End()

	// The ring and every pruning bound are the k-th best cost; the
	// per-owner step is the cover search with the heap as its leaf action.
	en := s.owners(q, qi, fn, df, false, &stats)
	for en.next(top.bound()) {
		s.bestWithOwner(qi, fn, &s.own, top.bound(), &stats, top)
	}
	en.finish(top.sets[0].Cost)
	algo.End()
	s.tr.AddPrunes(stats.Prunes)

	for i := range top.sets {
		top.sets[i].Stats = stats
		top.sets[i].Stats.Elapsed = time.Since(start)
	}
	return top.sets, nil
}

// irredundant drops members whose removal keeps the set feasible
// (greedily, farthest-from-query first), yielding the canonical
// irredundant form used by the top-k ranking.
func irredundant(src source, qi *kwds.QueryIndex, set []dataset.ObjectID) []dataset.ObjectID {
	out := append([]dataset.ObjectID(nil), set...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	for i := 0; i < len(out); {
		var m kwds.Mask
		for j, id := range out {
			if j == i {
				continue
			}
			m |= src.maskOf(qi, src.object(id))
		}
		if m == qi.Full() {
			out = append(out[:i], out[i+1:]...)
		} else {
			i++
		}
	}
	return out
}
