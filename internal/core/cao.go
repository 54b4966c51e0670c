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
func (s *search) caoAppro1(q Query, cost CostKind) (Result, error) {
	start := time.Now()
	algo := s.tr.Begin("cao_appro1")
	var stats Stats
	seed, c, _, _, err := s.nnSeed(q, costOf(cost), &stats)
	algo.End()
	if err != nil {
		return Result{}, err
	}
	stats.SetsEvaluated = 1
	stats.Elapsed = time.Since(start)
	return Result{
		Set:   canonical(seed),
		Cost:  c,
		Cost2: cost,
		Stats: stats,
	}, nil
}

// caoAppro2 is Cao et al.'s iterative approximation (ratio 2 for MaxSum):
// let t_f be the query keyword whose nearest neighbor is farthest (the
// keyword forcing d_f). Every feasible set contains an object with t_f, so
// the algorithm tries each object o containing t_f in ascending distance
// (stopping at the best-known cost) and builds the set
// {o} ∪ { NN(o, t) : t ∈ q.ψ uncovered by o }.
func (s *search) caoAppro2(q Query, cost CostKind) (Result, error) {
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)
	algo := s.tr.Begin("cao_appro2")
	var stats Stats
	s.trackStats(&stats)
	seed, curCost, _, tf, err := s.nnSeed(q, costOf(cost), &stats)
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet := canonical(seed)
	s.noteIncumbent(curSet, curCost, cost)
	stats.SetsEvaluated = 1

	loop := s.tr.Begin("owner_loop")
	searchStart := time.Now()
	it := s.src.keyword(q.Loc, tf)
	for {
		o, d, ok := it.Next()
		if !ok {
			break
		}
		if d >= curCost {
			stats.Prunes[trace.PruneIncumbentBreak]++
			break // o ∈ S implies cost(S) ≥ d(o, q) under MaxSum and Dia
		}
		stats.OwnersTried++
		s.pollCancel(stats.OwnersTried)
		set, ok := s.nnAroundObject(qi, o)
		if !ok {
			continue
		}
		stats.SetsEvaluated++
		if c := s.src.evalSet(costOf(cost), q.Loc, set); c < curCost {
			curSet, curCost = canonical(set), c
			s.noteIncumbent(curSet, curCost, cost)
		}
	}
	stats.Phases.Search = time.Since(searchStart)
	if loop != nil {
		loop.Attr("owners_tried", float64(stats.OwnersTried))
		loop.Attr("sets_evaluated", float64(stats.SetsEvaluated))
		loop.Attr("cost", curCost)
	}
	loop.End()
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: cost, Stats: stats}, nil
}

// nnAroundObject builds {o} ∪ { NN(o, t) : t uncovered by o }; ok is false
// when some keyword has no object at all.
func (s *search) nnAroundObject(qi *kwds.QueryIndex, o *dataset.Object) ([]dataset.ObjectID, bool) {
	set := []dataset.ObjectID{o.ID}
	covered := s.src.maskOf(qi, o)
	for i, kw := range qi.Keywords() {
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

// caoSearch is Cao-Exact's branch-and-bound state: one DFS over the
// whole tree, with bestSet/bestCost holding the incumbent.
type caoSearch struct {
	run   *search
	qi    *kwds.QueryIndex
	cost  costFn
	cands [][]kwCand
	stats *Stats

	chosen    []*dataset.Object
	chosenIDs []dataset.ObjectID

	bestCost float64
	bestSet  []dataset.ObjectID
}

// dfs expands the partial set cs.chosen (covering covered, with maxD the
// farthest member from q and maxPair the largest pairwise distance) by
// the uncovered keyword with the fewest candidates.
func (cs *caoSearch) dfs(covered kwds.Mask, maxD, maxPair float64) {
	cs.run.chargeNode(cs.stats)
	if covered == cs.qi.Full() {
		cs.stats.SetsEvaluated++
		c := cs.cost.combine(maxD, maxPair)
		if c < cs.bestCost {
			cs.bestCost = c
			cs.bestSet = canonical(cs.chosenIDs)
			cs.run.noteIncumbent(cs.bestSet, c, cs.cost.kind)
		}
		return
	}
	// Expand by the uncovered keyword with the fewest candidates.
	branch, branchLen := -1, math.MaxInt32
	for b := 0; b < cs.qi.Size(); b++ {
		if covered&(1<<uint(b)) != 0 {
			continue
		}
		if n := len(cs.cands[b]); n < branchLen {
			branch, branchLen = b, n
		}
	}
	for _, kc := range cs.cands[branch] {
		if kc.mask&^covered == 0 {
			cs.stats.Prunes[trace.PruneNoNewKeyword]++
			continue
		}
		if kc.d >= cs.bestCost {
			// ascending distance: every later candidate also exceeds
			// the bound
			cs.stats.Prunes[trace.PruneDistanceBreak]++
			break
		}
		nd := math.Max(maxD, kc.d)
		np := maxPair
		for _, m := range cs.chosen {
			if d := kc.o.Loc.Dist(m.Loc); d > np {
				np = d
			}
		}
		if cs.cost.combine(nd, np) >= cs.bestCost {
			cs.stats.Prunes[trace.PrunePairBound]++
			continue
		}
		cs.chosen = append(cs.chosen, kc.o)
		cs.chosenIDs = append(cs.chosenIDs, kc.o.ID)
		cs.dfs(covered|kc.mask, nd, np)
		cs.chosen = cs.chosen[:len(cs.chosen)-1]
		cs.chosenIDs = cs.chosenIDs[:len(cs.chosenIDs)-1]
	}
}

// caoExact is the Cao et al. branch-and-bound exact baseline: a
// best-known-cost-pruned exhaustive search over feasible sets, expanding
// partial sets by the least frequent uncovered keyword's candidate objects
// (ascending by distance from q). The search space is the disk
// C(q, curCost) with curCost seeded by Cao-Appro2 — there is no distance
// owner enumeration, which is exactly the structural difference the paper
// exploits.
func (s *search) caoExact(q Query, cost CostKind) (Result, error) {
	start := time.Now()
	qi := kwds.NewQueryIndex(q.Keywords)

	// Seed with the Appro2 result, as Cao et al. do.
	algo := s.tr.Begin("cao_exact")
	seedSp := s.tr.Begin("seed_appro2")
	seedRes, err := s.caoAppro2(q, cost)
	seedSp.End()
	if err != nil {
		algo.End()
		return Result{}, err
	}
	curSet, curCost := seedRes.Set, seedRes.Cost
	stats := Stats{SetsEvaluated: seedRes.Stats.SetsEvaluated, Prunes: seedRes.Stats.Prunes}
	stats.Phases.Seed = time.Since(start)
	// The Appro2 seed already noted itself (same per-call holder);
	// re-register the outer stats so an unwind recovers this run's
	// counters, which subsume the seed's.
	s.trackStats(&stats)

	// Materialize, per query keyword, the candidate objects containing it
	// within C(q, curCost), ascending by distance. The lists are the
	// search's scratch, so they recycle with it.
	matSp := s.tr.Begin("materialize")
	matStart := time.Now()
	cands := s.cao.ensureCands(qi.Size())
	for b, kw := range qi.Keywords() {
		it := s.src.keyword(q.Loc, kw)
		for {
			o, d, ok := it.Next()
			if !ok || d >= curCost {
				break
			}
			cands[b] = append(cands[b], kwCand{o: o, d: d, mask: s.src.maskOf(qi, o)})
			stats.CandidatesSeen++
			s.pollCancel(stats.CandidatesSeen)
		}
	}
	stats.Phases.Materialize = time.Since(matStart)
	if matSp != nil {
		matSp.Attr("candidates", float64(stats.CandidatesSeen))
	}
	matSp.End()

	searchSp := s.tr.Begin("bnb_search")
	searchStart := time.Now()
	cs := &caoSearch{
		run: s, qi: qi, cost: costOf(cost), cands: cands, stats: &stats,
		chosen:    s.cao.chosen[:0],
		chosenIDs: s.cao.chosenIDs[:0],
		bestCost:  curCost,
		bestSet:   curSet,
	}
	cs.dfs(0, 0, 0)
	curSet, curCost = cs.bestSet, cs.bestCost
	s.cao.chosen, s.cao.chosenIDs = cs.chosen[:0], cs.chosenIDs[:0]
	stats.Phases.Search = time.Since(searchStart)
	if searchSp != nil {
		searchSp.Attr("nodes", float64(stats.NodesExpanded))
		searchSp.Attr("sets_evaluated", float64(stats.SetsEvaluated))
		searchSp.Attr("cost", curCost)
	}
	searchSp.End()
	algo.End()

	stats.Elapsed = time.Since(start)
	return Result{Set: curSet, Cost: curCost, Cost2: cost, Stats: stats}, nil
}
