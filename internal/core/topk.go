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

	"coskq/internal/dataset"
	"coskq/internal/kwds"
)

// topKHeap keeps the best k candidate sets found so far, deduplicated by
// canonical membership. A TopK execution binds it to its record
// (search.top), where the cover search hands it raw covers (offerCover).
type topKHeap struct {
	k    int
	sets []Result
	seen map[string]bool
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
func (s *search) offerCover(cover []dataset.ObjectID) {
	h := s.top
	set := irredundant(s.src, s.qi, cover)
	cost := s.src.evalSet(s.cost, s.q.Loc, set)
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

// ranking is the answer of a TopK execution that ended in res: the
// heap's sets, best first, each carrying res's Stats and Degraded flag —
// or, with the heap empty, res alone when the degrade fallback gave it a
// set.
func (h *topKHeap) ranking(res Result) []Result {
	if len(h.sets) == 0 {
		if res.Set == nil {
			return nil
		}
		return []Result{res}
	}
	for i := range h.sets {
		h.sets[i].Degraded, h.sets[i].Stats = res.Degraded, res.Stats
	}
	return h.sets
}

// TopK returns the k cheapest irredundant feasible sets for q under the
// MaxSum or Dia cost, best first (fewer when fewer exist). It reuses the
// distance owner-driven enumeration with the k-th best cost as the ring
// and pruning bound.
func (e *Engine) TopK(q Query, cost CostKind, k int) ([]Result, error) {
	return e.TopKCtx(context.Background(), q, cost, k)
}

// TopKCtx is TopK with cancellation, on the path every solve takes:
// when ctx is cancelled, the enumeration unwinds promptly, and the
// engine's degrade policy applies — the partial ranking accumulated in
// the heap is itself the anytime answer (each entry marked Degraded), and
// under DegradeFallbackAppro an empty heap falls back to one approximate
// set.
func (e *Engine) TopKCtx(ctx context.Context, q Query, cost CostKind, k int) ([]Result, error) {
	top := &topKHeap{k: k, seen: make(map[string]bool)}
	res, err := e.run(ctx, e.treeSource(), q, func(s *search) (Result, error) { return s.topK(q, cost, top) })
	if err != nil {
		return nil, err
	}
	return top.ranking(res), nil
}

// topK is the owner-driven skeleton with top as the ranking: the k-th
// best cost is the ring and every pruning bound, and the per-owner step
// is the cover search with the heap as its leaf action.
func (s *search) topK(q Query, cost CostKind, top *topKHeap) (Result, error) {
	if r := rowOf(cost); r == nil || !r.topK {
		return Result{}, fmt.Errorf("%w: TopK under %v", ErrUnsupported, cost)
	}
	if top.k <= 0 {
		return Result{}, nil
	}
	if err := s.open(q, costOf(cost), "topk", true); err != nil {
		return Result{}, err
	}
	// The seed enters in its irredundant form, which may be cheaper than
	// N(q) itself.
	s.top = top
	verifySp := s.tr.Begin("verify")
	s.offerCover(s.inc)
	verifySp.End()

	en := s.owners(s.df, false)
	for en.next(top.bound()) {
		s.bestWithOwner(&s.own, top.bound())
	}
	en.finish(top.sets[0].Cost)
	return s.result()
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
			m |= src.mask(qi, id)
		}
		if m == qi.Full() {
			out = append(out[:i], out[i+1:]...)
		} else {
			i++
		}
	}
	return out
}
