package core

import (
	"math"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// caoAppro1 is Cao et al.'s first approximation: return the nearest
// neighbor set N(q). For MaxSum its ratio is 3 (each member is within d_f
// of q, so the pairwise component is at most 2·d_f while any feasible set
// costs at least d_f).
func (s *search) caoAppro1(q Query, cost costFn) (Result, error) {
	if err := s.open(q, cost, "cao_appro1", true); err != nil {
		return Result{}, err
	}
	return s.result()
}

// caoAppro2 is Cao et al.'s iterative approximation (ratio 2 for MaxSum):
// let t_f be the query keyword whose nearest neighbor is farthest (the
// keyword forcing d_f). Every feasible set contains an object with t_f, so
// the algorithm tries each object o containing t_f in ascending distance
// (stopping at the best-known cost) and builds the set
// {o} ∪ { NN(o, t) : t ∈ q.ψ uncovered by o }.
func (s *search) caoAppro2(q Query, cost costFn) (Result, error) {
	if err := s.open(q, cost, "cao_appro2", true); err != nil {
		return Result{}, err
	}
	loop := s.tr.Begin("owner_loop")
	searchStart := time.Now()
	it := s.src.keyword(q.Loc, s.tf)
	for {
		o, d, ok := it.Next()
		if !ok {
			break
		}
		if d >= s.incCost {
			s.stats.Prunes[trace.PruneIncumbentBreak]++
			break // o ∈ S implies cost(S) ≥ d(o, q) under MaxSum and Dia
		}
		s.stats.OwnersTried++
		s.pollCancel(s.stats.OwnersTried)
		set, ok := s.nnAroundObject(o)
		if !ok {
			continue
		}
		s.stats.SetsEvaluated++
		if c := s.src.evalSet(cost, q.Loc, set); c < s.incCost {
			s.improve(set, c)
		}
	}
	s.stats.Phases.Search = time.Since(searchStart)
	if loop != nil {
		loop.Attr("owners_tried", float64(s.stats.OwnersTried))
		loop.Attr("sets_evaluated", float64(s.stats.SetsEvaluated))
		loop.Attr("cost", s.incCost)
	}
	loop.End()
	return s.result()
}

// nnAroundObject builds {o} ∪ { NN(o, t) : t uncovered by o }; ok is false
// when some keyword has no object at all.
func (s *search) nnAroundObject(o *dataset.Object) ([]dataset.ObjectID, bool) {
	set := []dataset.ObjectID{o.ID}
	covered := s.src.maskOf(s.qi, o)
	for i, kw := range s.qi.Keywords() {
		if covered&(1<<uint(i)) != 0 {
			continue
		}
		id, _, ok := s.src.nn(o.Loc, kw)
		if !ok {
			return nil, false
		}
		set = append(set, id)
	}
	return set, true
}

// kwCand is one Cao-Exact candidate: an object containing a particular
// query keyword, with its distance from q and covered-keyword mask.
type kwCand struct {
	o    *dataset.Object
	d    float64
	mask kwds.Mask
}

// caoDFS is Cao-Exact's branch and bound, one DFS over the whole tree:
// it expands the partial set s.cao.chosen (covering covered, with maxD
// the farthest member from q and maxPair the largest pairwise distance)
// by the uncovered keyword with the fewest candidates, pruned by the
// incumbent's cost.
func (s *search) caoDFS(covered kwds.Mask, maxD, maxPair float64) {
	s.chargeNode()
	cao := &s.cao
	if covered == s.qi.Full() {
		s.stats.SetsEvaluated++
		if c := s.cost.combine(maxD, maxPair); c < s.incCost {
			s.improve(cao.chosenIDs, c)
		}
		return
	}
	// Expand by the uncovered keyword with the fewest candidates.
	branch, branchLen := -1, math.MaxInt32
	for b := 0; b < s.qi.Size(); b++ {
		if covered&(1<<uint(b)) != 0 {
			continue
		}
		if n := len(cao.cands[b]); n < branchLen {
			branch, branchLen = b, n
		}
	}
	for _, kc := range cao.cands[branch] {
		if kc.mask&^covered == 0 {
			s.stats.Prunes[trace.PruneNoNewKeyword]++
			continue
		}
		if kc.d >= s.incCost {
			// ascending distance: every later candidate also exceeds
			// the bound
			s.stats.Prunes[trace.PruneDistanceBreak]++
			break
		}
		nd := math.Max(maxD, kc.d)
		np := maxPair
		for _, m := range cao.chosen {
			if d := kc.o.Loc.Dist(m.Loc); d > np {
				np = d
			}
		}
		if s.cost.combine(nd, np) >= s.incCost {
			s.stats.Prunes[trace.PrunePairBound]++
			continue
		}
		cao.chosen = append(cao.chosen, kc.o)
		cao.chosenIDs = append(cao.chosenIDs, kc.o.ID)
		s.caoDFS(covered|kc.mask, nd, np)
		cao.chosen = cao.chosen[:len(cao.chosen)-1]
		cao.chosenIDs = cao.chosenIDs[:len(cao.chosenIDs)-1]
	}
}

// caoExact is the Cao et al. branch-and-bound exact baseline: a
// best-known-cost-pruned exhaustive search over feasible sets, expanding
// partial sets by the least frequent uncovered keyword's candidate objects
// (ascending by distance from q). The search space is the disk
// C(q, curCost) with curCost seeded by Cao-Appro2 — there is no distance
// owner enumeration, which is exactly the structural difference the paper
// exploits.
func (s *search) caoExact(q Query, cost costFn) (Result, error) {
	start := time.Now()

	// Seed with the Appro2 result, as Cao et al. do: Appro2 runs on the
	// record, and Cao-Exact continues it under its own span, keeping the
	// incumbent and, of the seed's counters, SetsEvaluated and Prunes.
	algo := s.tr.Begin("cao_exact")
	seedSp := s.tr.Begin("seed_appro2")
	_, err := s.caoAppro2(q, cost)
	seedSp.End()
	if err != nil {
		algo.End()
		return Result{}, err
	}
	s.algo = algo
	s.stats = Stats{SetsEvaluated: s.stats.SetsEvaluated, Prunes: s.stats.Prunes}
	s.stats.Phases.Seed = time.Since(start)

	// Materialize, per query keyword, the candidate objects containing it
	// within C(q, curCost), ascending by distance. The lists are the
	// search's scratch, so they recycle with it.
	matSp := s.tr.Begin("materialize")
	matStart := time.Now()
	cands := s.cao.ensureCands(s.qi.Size())
	for b, kw := range s.qi.Keywords() {
		it := s.src.keyword(q.Loc, kw)
		for {
			o, d, ok := it.Next()
			if !ok || d >= s.incCost {
				break
			}
			cands[b] = append(cands[b], kwCand{o: o, d: d, mask: s.src.maskOf(s.qi, o)})
			s.stats.CandidatesSeen++
			s.pollCancel(s.stats.CandidatesSeen)
		}
	}
	s.stats.Phases.Materialize = time.Since(matStart)
	if matSp != nil {
		matSp.Attr("candidates", float64(s.stats.CandidatesSeen))
	}
	matSp.End()

	searchSp := s.tr.Begin("bnb_search")
	searchStart := time.Now()
	s.cao.chosen, s.cao.chosenIDs = s.cao.chosen[:0], s.cao.chosenIDs[:0]
	s.caoDFS(0, 0, 0)
	s.stats.Phases.Search = time.Since(searchStart)
	if searchSp != nil {
		searchSp.Attr("nodes", float64(s.stats.NodesExpanded))
		searchSp.Attr("sets_evaluated", float64(s.stats.SetsEvaluated))
		searchSp.Attr("cost", s.incCost)
	}
	searchSp.End()
	return s.result()
}
