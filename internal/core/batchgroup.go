package core

// Grouped batch solving (DESIGN.md §15). A batch under production traffic
// is rarely a set of unrelated queries: hot locations and hot keyword
// combinations repeat. SolveBatchCtx therefore clusters its queries by
// query-location grid cell and keyword-set Jaccard similarity, and solves
// each cluster with two kinds of shared work:
//
//  1. A cluster-local keyword-NN share (nnShare): every NN2 observation
//     made while solving one member carries a validity radius (the same
//     rule as the engine-level NNCache, nncache.go), so later members
//     re-resolve their keyword NNs from the share — provably
//     bit-identically — instead of re-walking the IR-tree.
//
//  2. Incumbent warm-starting (warmBoundFor): when a member's exact
//     answer set W also covers the next member's keywords, the next
//     member's optimum is at most cost(W) evaluated at its own location —
//     W is feasible for it — so the bound that prunes owners and partial
//     sets starts one ulp above that value instead of at the NN-seed
//     cost. The warm value is used only as a bound, never as an answer
//     candidate and never as the IR-tree iterator's limit, which keeps
//     warm and cold runs bit-identical (see the proof in exact.go).
//
// Candidate owners are NOT shared: every member pulls them lazily from its
// own irtree.RelevantNNIterator, the engine's one candidate stream, and
// usually stops after a few dozen objects — fewer than any cluster-wide
// range fetch would materialize, filter and sort for it (DESIGN.md §15.1
// has the measurement).
//
// Grouping is deterministic: queries are scanned in batch order, clusters
// within a cell are probed in creation order, and membership depends only
// on the queries themselves — never on map iteration order or scheduling.
// Cluster solving preserves per-item semantics exactly: every member
// runs the same accounted execution as SolveCtx (solveOne: metrics
// record, trace, degrade policy, context error), and grouped results are
// bit-identical to an independent per-query run (the grouped differential
// tests pin this across costs, methods, seeds and worker counts).

import (
	"context"
	"math"
	"sync"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

const (
	// batchCellGrid is the number of grouping-grid cells per axis over the
	// dataset MBR: coarse enough that jittered repeats of one hot location
	// land in one cell, fine enough that distinct neighborhoods do not.
	batchCellGrid = 128
	// batchJaccardMin is the minimum keyword Jaccard similarity between a
	// query and a cluster's representative (its first member) to join.
	batchJaccardMin = 0.5
	// nnShareCap bounds a cluster's NN-observation list; a linear scan
	// over at most this many entries stays cheaper than the tree walk it
	// replaces.
	nnShareCap = 256
)

// batchCluster is one group of near-identical queries solved together:
// indices into the batch's query slice, ascending.
type batchCluster struct {
	idxs []int
}

// jaccardSim returns |a∩b| / |a∪b| for two sorted keyword sets (1 when
// both are empty).
func jaccardSim(a, b kwds.Set) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// groupBatch clusters the batch's queries. Two queries share a cluster
// when they fall in the same grouping-grid cell and the later one's
// keyword set has Jaccard similarity ≥ batchJaccardMin with the cluster's
// first member; a query joins the first such cluster of its cell.
// Scanning in batch order with in-cell probes in creation order makes the
// clustering deterministic.
func (e *Engine) groupBatch(queries []Query) []batchCluster {
	mbr := e.DS.MBR()
	sideX := mbr.Width() / batchCellGrid
	sideY := mbr.Height() / batchCellGrid
	cellOf := func(p geo.Point) uint64 {
		cx, cy := 0.0, 0.0
		if sideX > 0 {
			cx = math.Floor((p.X - mbr.MinX) / sideX)
		}
		if sideY > 0 {
			cy = math.Floor((p.Y - mbr.MinY) / sideY)
		}
		return uint64(uint32(clampCell(cx)))<<32 | uint64(uint32(clampCell(cy)))
	}

	clusters := make([]batchCluster, 0, len(queries))
	// byCell only resolves a cell to its cluster indices; iteration never
	// ranges over the map, so map order cannot leak into the clustering.
	byCell := make(map[uint64][]int)
	for i, q := range queries {
		cell := cellOf(q.Loc)
		joined := false
		for _, ci := range byCell[cell] {
			c := &clusters[ci]
			rep := queries[c.idxs[0]].Keywords
			if jaccardSim(q.Keywords, rep) >= batchJaccardMin {
				c.idxs = append(c.idxs, i)
				joined = true
				break
			}
		}
		if !joined {
			clusters = append(clusters, batchCluster{idxs: []int{i}})
			byCell[cell] = append(byCell[cell], len(clusters)-1)
		}
	}
	return clusters
}

// nnObs is one validity-radius NN observation (the in-cluster analogue of
// an NNCache entry; see nncache.go for the proof that reuse within the
// radius is bit-identical to the IR-tree walk).
type nnObs struct {
	p      geo.Point
	kw     kwds.ID
	id     dataset.ObjectID
	loc    geo.Point
	d1, d2 float64
	ok     bool
}

// nnShare is the cluster-local keyword-NN share: a flat observation list
// consulted by lookupNN ahead of the engine-level cache. It belongs to
// the cluster's (serial) member loop and is NOT goroutine-safe; a member's
// parallel workers never see it (parallel.go).
type nnShare struct {
	obs []nnObs
}

// lookup returns a provably-valid cached NN for (p, kw), hit=false when
// no observation validates.
func (s *nnShare) lookup(p geo.Point, kw kwds.ID) (id dataset.ObjectID, d float64, ok, hit bool) {
	for i := range s.obs {
		o := &s.obs[i]
		if o.kw != kw {
			continue
		}
		if !o.ok {
			// Negative observation: the keyword appears in no object;
			// valid everywhere (the dataset is immutable).
			return 0, 0, false, true
		}
		delta := p.Dist(o.p)
		if delta == 0 {
			return o.id, o.d1, true, true
		}
		if 2*delta < o.d2-o.d1 {
			return o.id, p.Dist(o.loc), true, true
		}
	}
	return 0, 0, false, false
}

// store appends one NN2 observation, dropping it once the share is full.
func (s *nnShare) store(p geo.Point, kw kwds.ID, id dataset.ObjectID, loc geo.Point, d1, d2 float64, ok bool) {
	if len(s.obs) >= nnShareCap {
		return
	}
	s.obs = append(s.obs, nnObs{p: p, kw: kw, id: id, loc: loc, d1: d1, d2: d2, ok: ok})
}

// nnSharePool recycles shares (their observation lists) across clusters;
// acquire with getNNShare, release with putNNShare.
var nnSharePool = sync.Pool{New: func() any { return new(nnShare) }}

func getNNShare() *nnShare {
	s := nnSharePool.Get().(*nnShare)
	s.obs = s.obs[:0]
	return s
}

func putNNShare(s *nnShare) { nnSharePool.Put(s) }

// warmStartEligible reports whether the cluster's members may chain warm
// starts: only the owner-driven exact search under MaxSum/Dia reads a
// warm bound, and ablations that widen the enumeration (NoIncumbentBreak
// reads past every bound) are measured cold.
func (e *Engine) warmStartEligible(cost CostKind, method Method) bool {
	return method == OwnerExact &&
		(cost == MaxSum || cost == Dia) &&
		e.Ablation == (Ablation{})
}

// warmSeed carries a finished member's answer forward: the canonical set,
// and the union of its members' keywords (what the set can cover).
type warmSeed struct {
	set []dataset.ObjectID
	kw  kwds.Set
}

// warmBoundFor returns the warm-start bound for q — the warm set's cost
// evaluated at q's location — or 0 when the warm set does not cover q's
// keywords (it would not be feasible for q, so its cost bounds nothing).
func (e *Engine) warmBoundFor(w warmSeed, q Query, cost CostKind) float64 {
	if len(w.set) == 0 || !w.kw.Covers(q.Keywords) {
		return 0
	}
	return e.EvalCost(cost, q.Loc, w.set)
}

// noteWarm folds a finished member's answer into the warm seed. Only
// complete (non-degraded) answers chain: a degraded incumbent's cost is
// an upper bound too, but keeping the contract "warm values come from
// full answers" keeps the determinism argument one sentence long.
func (w *warmSeed) noteWarm(e *Engine, res Result) {
	if res.Degraded || len(res.Set) == 0 {
		return
	}
	var u kwds.Set
	for _, id := range res.Set {
		u = u.Union(e.DS.Object(id).Keywords)
	}
	w.set = append(w.set[:0], res.Set...)
	w.kw = u
}

// solveCluster answers one cluster's members in index order, sharing the
// NN observations and the warm-start chain described atop this file.
// Results land in out at each member's batch index.
func (e *Engine) solveCluster(ctx context.Context, queries []Query, cl batchCluster, cost CostKind, method Method, out []BatchItem) {
	if len(cl.idxs) == 1 {
		i := cl.idxs[0]
		if err := ctx.Err(); err != nil {
			out[i] = BatchItem{Err: err}
			return
		}
		res, err := e.SolveCtx(ctx, queries[i], cost, method)
		out[i] = BatchItem{Result: res, Err: err}
		return
	}

	share := getNNShare()
	defer putNNShare(share)

	warmable := e.warmStartEligible(cost, method)
	var warm warmSeed
	for _, i := range cl.idxs {
		// Poll between members: a cancelled batch must stop starting new
		// member solves even while its cluster is mid-flight.
		if err := ctx.Err(); err != nil {
			out[i] = BatchItem{Err: err}
			continue
		}
		q := queries[i]
		wb := 0.0
		if warmable {
			wb = e.warmBoundFor(warm, q, cost)
		}
		res, err := e.solveOne(ctx, q, cost, method, share, wb)
		out[i] = BatchItem{Result: res, Err: err}
		if warmable && err == nil {
			warm.noteWarm(e, res)
		}
	}
}
