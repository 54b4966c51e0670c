package core

// Top-k CoSKQ (an extension following Cao et al., TODS 2015): return the
// k cheapest feasible sets instead of only the best one. The owner-driven
// search adapts directly — the incumbent-cost bound becomes the k-th best
// cost — with one semantic refinement: the enumeration produces
// irredundant sets (no member can be removed without losing coverage).
// Under the max-composed costs a redundant superset never costs less than
// its irredundant subset, so excluding them is the useful ranking.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// topKHeap keeps the best k candidate sets found so far, deduplicated by
// canonical membership.
type topKHeap struct {
	k    int
	sets []Result
	seen map[string]bool
}

func newTopKHeap(k int) *topKHeap {
	return &topKHeap{k: k, seen: make(map[string]bool)}
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

// offer inserts a candidate set (already canonical) if it ranks in the
// top k and was not seen before.
func (h *topKHeap) offer(set []dataset.ObjectID, cost float64, kind CostKind) {
	key := setKey(set)
	if h.seen[key] {
		return
	}
	if len(h.sets) == h.k && cost >= h.bound() {
		return
	}
	h.seen[key] = true
	h.sets = append(h.sets, Result{Set: set, Cost: cost, Cost2: kind})
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
	err = e.enter(ctx, q, func(s *search) (err error) {
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
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := s.tr.Begin("topk")
	var stats Stats
	s.trackStats(&stats)
	seed, seedCost, df, err := s.nnSeed(q, cost, &stats)
	if err != nil {
		algo.End()
		return nil, err
	}
	stats.SetsEvaluated = 1

	_ = seedCost // the irredundant form may be cheaper; recompute below
	top := newTopKHeap(k)
	s.trackTopK(top)
	verifySp := s.tr.Begin("verify")
	seedSet := irredundant(s.Engine, qi, canonical(seed))
	top.offer(seedSet, s.EvalCost(cost, q.Loc, seedSet), cost)
	verifySp.End()

	var pool []cand
	bitCands := make([][]int32, qi.Size())

	loop := s.tr.Begin("owner_loop")
	searchStart := time.Now()
	it := s.Tree.NewRelevantNNIterator(q.Loc, qi)
	for {
		it.Limit(top.bound())
		o, dof, ok := it.Next()
		if !ok {
			break
		}
		if dof >= top.bound() {
			stats.Prunes[trace.PruneIncumbentBreak]++
			break // every further set costs at least d(owner, q)
		}
		mask := qi.MaskOf(o.Keywords)
		idx := int32(len(pool))
		pool = append(pool, cand{o: o, d: dof, mask: mask})
		for b := 0; b < qi.Size(); b++ {
			if mask&(1<<uint(b)) != 0 {
				bitCands[b] = append(bitCands[b], idx)
			}
		}
		stats.CandidatesSeen++
		s.pollCancel(stats.CandidatesSeen)
		if dof < df {
			stats.Prunes[trace.PruneOwnerRing]++
			continue
		}
		stats.OwnersTried++
		s.allSetsWithOwner(q, qi, cost, pool, bitCands, int(idx), top, &stats)
	}
	stats.Phases.Search = time.Since(searchStart)
	if loop != nil {
		loop.Attr("candidates", float64(stats.CandidatesSeen))
		loop.Attr("owners_tried", float64(stats.OwnersTried))
		loop.Attr("nodes", float64(stats.NodesExpanded))
		loop.Attr("sets_evaluated", float64(stats.SetsEvaluated))
	}
	loop.End()
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
func irredundant(e *Engine, qi *kwds.QueryIndex, set []dataset.ObjectID) []dataset.ObjectID {
	out := append([]dataset.ObjectID(nil), set...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	for i := 0; i < len(out); {
		var m kwds.Mask
		for j, id := range out {
			if j == i {
				continue
			}
			m |= qi.MaskOf(e.DS.Object(id).Keywords)
		}
		if m == qi.Full() {
			out = append(out[:i], out[i+1:]...)
		} else {
			i++
		}
	}
	return out
}

// allSetsWithOwner enumerates the irredundant covers owned by
// pool[ownerIdx] and offers each to the top-k heap, pruning partial sets
// against the heap's current bound.
func (s *search) allSetsWithOwner(q Query, qi *kwds.QueryIndex, cost CostKind, pool []cand, bitCands [][]int32, ownerIdx int, top *topKHeap, stats *Stats) {
	owner := pool[ownerIdx]
	dof := owner.d

	if combine(cost, dof, 0) >= top.bound() {
		stats.Prunes[trace.PruneOwnerBound]++
		return
	}
	if qi.Full()&^owner.mask == 0 {
		stats.SetsEvaluated++
		top.offer([]dataset.ObjectID{owner.o.ID}, combine(cost, dof, 0), cost)
		return
	}

	chosen := make([]int32, 0, qi.Size())
	var dfs func(covered kwds.Mask, maxPair float64)
	dfs = func(covered kwds.Mask, maxPair float64) {
		s.chargeNode(stats)
		if covered == qi.Full() {
			set := make([]dataset.ObjectID, 0, len(chosen)+1)
			set = append(set, owner.o.ID)
			for _, ci := range chosen {
				set = append(set, pool[ci].o.ID)
			}
			set = irredundant(s.Engine, qi, canonical(set))
			stats.SetsEvaluated++
			top.offer(set, s.EvalCost(cost, q.Loc, set), cost)
			return
		}
		branchBit, branchLen := -1, math.MaxInt32
		for b := 0; b < qi.Size(); b++ {
			if covered&(1<<uint(b)) != 0 {
				continue
			}
			if n := len(bitCands[b]); n < branchLen {
				branchBit, branchLen = b, n
			}
		}
		for _, ci := range bitCands[branchBit] {
			c := pool[ci]
			if c.mask&^covered == 0 {
				stats.Prunes[trace.PruneNoNewKeyword]++
				continue
			}
			np := maxPair
			if d := c.o.Loc.Dist(owner.o.Loc); d > np {
				np = d
			}
			for _, pi := range chosen {
				if d := c.o.Loc.Dist(pool[pi].o.Loc); d > np {
					np = d
				}
			}
			if combine(cost, dof, np) >= top.bound() {
				stats.Prunes[trace.PrunePairBound]++
				continue
			}
			chosen = append(chosen, ci)
			dfs(covered|c.mask, np)
			chosen = chosen[:len(chosen)-1]
		}
	}
	dfs(owner.mask, 0)
}
