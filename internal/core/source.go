package core

// The candidate source (DESIGN.md §4.1). Every read a search makes of the
// objects it ranks goes through one source: the relevant stream and the
// keyword stream, which yield each object as one record (cand), keyword
// NN and NN2, Brute's scan, and an answer member's location and mask for
// cost evaluation. It has two arms:
//
//   - the tree arm: an engine's dataset and IR-tree, and the keyword-NN
//     cache over that tree, if any;
//   - the pool arm: a Pool, one query's relevant candidates held flat in
//     ascending distance from the query point. The shard router solves
//     the objects it gathered this way instead of indexing them.
//
// The source is a concrete struct, not an interface: the per-pop path
// pays one branch and allocates nothing.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
)

// source is what one search reads. Exactly one arm is set: pool, or tree
// and ds, with the optional cache.
type source struct {
	tree  *irtree.Tree
	ds    *dataset.Dataset
	cache *NNCache
	pool  *Pool
}

// treeSource is the engine's own arm.
func (e *Engine) treeSource() source { return source{tree: e.Tree, ds: e.DS, cache: e.NNCache} }

// loc returns the location of the object with the given id.
func (src source) loc(id dataset.ObjectID) geo.Point {
	if p := src.pool; p != nil {
		return p.ents[id].loc
	}
	return src.ds.Object(id).Loc
}

// mask returns the query keywords of qi the object with the given id
// covers. On the pool arm the query is always the pool's whole word list
// (Pool.query), so the stored mask is already over qi's bits.
func (src source) mask(qi *kwds.QueryIndex, id dataset.ObjectID) kwds.Mask {
	if p := src.pool; p != nil {
		return p.ents[id].mask
	}
	return qi.MaskOf(src.ds.Object(id).Keywords)
}

// nn returns the object nearest to p holding kw, with its distance; ok is
// false when no object holds kw.
func (src source) nn(p geo.Point, kw kwds.ID) (dataset.ObjectID, float64, bool) {
	if pl := src.pool; pl != nil {
		id, d, _, ok := pl.nn2(p, kw)
		return id, d, ok
	}
	return src.tree.NN(p, kw)
}

// nn2 is nn plus the distance of the second-nearest object holding kw
// (+Inf when there is none), the NN cache's validity margin.
func (src source) nn2(p geo.Point, kw kwds.ID) (dataset.ObjectID, float64, float64, bool) {
	if pl := src.pool; pl != nil {
		return pl.nn2(p, kw)
	}
	return src.tree.NN2(p, kw)
}

// relevant opens the relevant stream from p: the objects covering a
// keyword of qi, ascending by distance.
func (src source) relevant(p geo.Point, qi *kwds.QueryIndex) relevantStream {
	if pl := src.pool; pl != nil {
		pl.mustStreamFrom(p)
		return relevantStream{pool: pl, limit: math.Inf(1)}
	}
	return relevantStream{it: src.tree.NewRelevantNNIterator(p, qi)}
}

// keyword opens the keyword stream from p: the objects holding kw,
// ascending by distance, each with its mask over qi.
func (src source) keyword(p geo.Point, qi *kwds.QueryIndex, kw kwds.ID) keywordStream {
	if pl := src.pool; pl != nil {
		pl.mustStreamFrom(p)
		return keywordStream{pool: pl, list: pl.words[kw]}
	}
	return keywordStream{it: src.tree.NewKeywordNNIterator(p, kw), qi: qi}
}

// scan calls fn on every object relevant to qi with its mask, in identity
// order: dataset order on the tree arm, Key order on the pool arm. Brute
// keeps the first of equally cheap covers, so the order is part of its
// answer.
func (src source) scan(qi *kwds.QueryIndex, fn func(dataset.ObjectID, kwds.Mask)) {
	if p := src.pool; p != nil {
		ids := make([]dataset.ObjectID, len(p.ents))
		for i := range ids {
			ids[i] = dataset.ObjectID(i)
		}
		slices.SortFunc(ids, func(a, b dataset.ObjectID) int { return cmp.Compare(p.ents[a].key, p.ents[b].key) })
		for _, id := range ids {
			fn(id, p.ents[id].mask)
		}
		return
	}
	for i := range src.ds.Objects {
		o := &src.ds.Objects[i]
		if m := qi.MaskOf(o.Keywords); m != 0 {
			fn(o.ID, m)
		}
	}
}

// evalSet resolves set to its locations and evaluates c over them. Answer
// sets have at most |q.ψ| + 1 members, so the locations normally fit the
// stack buffer.
func (src source) evalSet(c costFn, q geo.Point, set []dataset.ObjectID) float64 {
	var buf [16]geo.Point
	pts := buf[:0]
	for _, id := range set {
		pts = append(pts, src.loc(id))
	}
	return c.eval(q, pts)
}

// cand is the one candidate record: what every stream yields and every
// search reads of a relevant object — its id, location, distance from
// the query point and query mask. The location sits inline, so the cover
// search's pairwise distances do not chase an object pointer each.
type cand struct {
	id   dataset.ObjectID
	loc  geo.Point
	d    float64   // d(o, q)
	mask kwds.Mask // query keywords covered by o
}

// relevantStream is the relevant stream of one search: the tree's
// best-first iterator, or a cursor over the pool.
type relevantStream struct {
	it    *irtree.RelevantNNIterator
	pool  *Pool
	next  int // the pool arm's cursor
	limit float64
}

// Limit promises that no object at distance ≥ d will be consumed; a limit
// only ever falls (irtree.RelevantNNIterator.Limit).
func (r *relevantStream) Limit(d float64) {
	if r.it != nil {
		r.it.Limit(d)
	} else if d < r.limit {
		r.limit = d
	}
}

// Next returns the next relevant object, or ok=false at the end of the
// stream or the limit. Every advance passes the fault.RTreeVisit point,
// on either arm.
func (r *relevantStream) Next() (cand, bool) {
	if r.it != nil {
		o, d, ok := r.it.Next()
		if !ok {
			return cand{}, false
		}
		return cand{id: o.ID, loc: o.Loc, d: d, mask: r.it.Mask()}, true
	}
	fault.Hit(fault.RTreeVisit)
	p := r.pool
	if r.next == len(p.ents) || p.ents[r.next].d >= r.limit {
		return cand{}, false
	}
	r.next++
	return p.ents[r.next-1].cand, true
}

// keywordStream is the keyword stream of one search: the tree's
// best-first iterator with the query its masks are over, or a cursor over
// the pool's list for the word.
type keywordStream struct {
	it   *irtree.KeywordNNIterator
	qi   *kwds.QueryIndex
	pool *Pool
	list []int32 // the pool arm's entries not yet yielded
}

// Next returns the next object holding the keyword, or ok=false when
// exhausted, passing fault.RTreeVisit on either arm.
func (k *keywordStream) Next() (cand, bool) {
	if k.it != nil {
		o, d, ok := k.it.Next()
		if !ok {
			return cand{}, false
		}
		return cand{id: o.ID, loc: o.Loc, d: d, mask: k.qi.MaskOf(o.Keywords)}, true
	}
	fault.Hit(fault.RTreeVisit)
	if len(k.list) == 0 {
		return cand{}, false
	}
	e := &k.pool.ents[k.list[0]]
	k.list = k.list[1:]
	return e.cand, true
}

// Pool is the pool arm of the candidate source: the relevant objects of
// one query, sorted once by (d(o, q), Key), with a mask column and one
// ascending list of local ids per query word. Its local object ids are
// positions in that order. The streams from the query point are cursors;
// a keyword NN from any other point is an exact scan of that word's list.
// A Pool is read-only once built, so concurrent solves may share it.
type Pool struct {
	at    geo.Point
	ents  []poolEntry
	words [][]int32
}

// poolEntry is one pooled object: its record, whose id is its local id
// and whose mask is its whole textual content, and the caller's Key and
// Ref.
type poolEntry struct {
	cand
	key uint64
	ref int32
}

// PoolObject is one candidate handed to NewPool.
type PoolObject struct {
	Loc geo.Point
	// Mask is the object's coverage of the query: bit i is set exactly
	// when the object holds query word i.
	Mask kwds.Mask
	// Key is the caller's identity for the object. Equidistant objects
	// order by Key, Brute enumerates in Key order, and equal Keys name
	// one object: the copies must share Loc and Mask, and only one stays.
	Key uint64
	// Ref is the caller's handle for the object, returned by Pool.Ref.
	Ref int32
}

// NewPool builds the pool of a query at at over words query words from
// objs. Objects covering none of the words are dropped, as is every copy
// of a Key but one. It panics when words exceeds kwds.MaxQueryKeywords.
func NewPool(at geo.Point, words int, objs []PoolObject) *Pool {
	if words < 0 || words > kwds.MaxQueryKeywords {
		panic(fmt.Sprintf("core: pool over %d words, want 0..%d", words, kwds.MaxQueryKeywords))
	}
	full := ^kwds.Mask(0) >> uint(kwds.MaxQueryKeywords-words)
	type relevant struct {
		d float64
		i int32
	}
	rel := make([]relevant, 0, len(objs))
	maxD2 := 0.0
	for i := range objs {
		if objs[i].Mask&full != 0 {
			d := at.Dist(objs[i].Loc)
			rel = append(rel, relevant{d, int32(i)})
			maxD2 = max(maxD2, d*d)
		}
	}
	n := len(rel)
	p := &Pool{at: at, ents: make([]poolEntry, n), words: make([][]int32, words)}
	if n == 0 {
		return p
	}

	// Sort by (d, Key): bucket by d², which spreads evenly over the disk
	// when the objects do, then sort each bucket's few entries.
	// Squaring, scaling and flooring are monotone, so bucket order is
	// distance order.
	bucket := func(float64) int { return 0 } // when d² does not scale to a finite range
	if scale := float64(n) / maxD2; scale > 0 && !math.IsInf(scale, 1) {
		bucket = func(d float64) int { return int(min(d*d*scale, float64(n-1))) }
	}
	next := make([]int32, n+1)
	for _, r := range rel {
		next[bucket(r.d)+1]++
	}
	for b := 1; b <= n; b++ {
		next[b] += next[b-1]
	}
	for _, r := range rel {
		b := bucket(r.d)
		o := &objs[r.i]
		p.ents[next[b]] = poolEntry{cand: cand{loc: o.Loc, d: r.d, mask: o.Mask & full}, key: o.Key, ref: o.Ref}
		next[b]++
	}
	byDistance := func(a, b poolEntry) int {
		if a.d != b.d {
			return cmp.Compare(a.d, b.d)
		}
		return cmp.Compare(a.key, b.key)
	}
	// After the placement next[b] is where bucket b ends, and so where
	// bucket b+1 starts.
	for lo, b := 0, 0; b < n; lo, b = int(next[b]), b+1 {
		if int(next[b])-lo > 1 {
			slices.SortFunc(p.ents[lo:next[b]], byDistance)
		}
	}
	// A copy has its original's Loc, so its distance, and sorts beside it.
	p.ents = slices.CompactFunc(p.ents, func(a, b poolEntry) bool { return a.key == b.key })

	var counts [kwds.MaxQueryKeywords]int
	total := 0
	for j := range p.ents {
		p.ents[j].id = dataset.ObjectID(j)
		for m := p.ents[j].mask; m != 0; m &= m - 1 {
			counts[bits.TrailingZeros64(uint64(m))]++
			total++
		}
	}
	backing := make([]int32, total)
	for b := range p.words {
		p.words[b], backing = backing[:0:counts[b]], backing[counts[b]:]
	}
	for j := range p.ents {
		for m := p.ents[j].mask; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(uint64(m))
			p.words[b] = append(p.words[b], int32(j))
		}
	}
	return p
}

// Len returns the number of objects in the pool.
func (p *Pool) Len() int { return len(p.ents) }

// Ref returns the caller's handle of the object with local id id.
func (p *Pool) Ref(id dataset.ObjectID) int32 { return p.ents[id].ref }

// query is the one query a pool answers: its point, and every word, word
// i as keyword id i — so query mask bits and pool mask bits agree.
func (p *Pool) query() Query {
	kw := make(kwds.Set, len(p.words))
	for i := range kw {
		kw[i] = kwds.ID(i)
	}
	return Query{Loc: p.at, Keywords: kw}
}

// mustStreamFrom guards the cursors: they are ordered from the query point
// and from nowhere else.
func (p *Pool) mustStreamFrom(at geo.Point) {
	if at != p.at {
		panic(fmt.Sprintf("core: pool stream from %v, the pool is ordered from %v", at, p.at))
	}
}

// nn2 is the pool's keyword NN: the head of the word's list at the query
// point, an exact scan of the list anywhere else (the earliest entry wins
// a tie).
func (p *Pool) nn2(at geo.Point, kw kwds.ID) (dataset.ObjectID, float64, float64, bool) {
	list := p.words[kw]
	if len(list) == 0 {
		return 0, 0, 0, false
	}
	if at == p.at {
		d2 := math.Inf(1)
		if len(list) > 1 {
			d2 = p.ents[list[1]].d
		}
		return dataset.ObjectID(list[0]), p.ents[list[0]].d, d2, true
	}
	best, d1, d2 := list[0], at.Dist(p.ents[list[0]].loc), math.Inf(1)
	for _, i := range list[1:] {
		switch d := at.Dist(p.ents[i].loc); {
		case d < d1:
			best, d1, d2 = i, d, d1
		case d < d2:
			d2 = d
		}
	}
	return dataset.ObjectID(best), d1, d2, true
}

// SolvePool answers the query a pool holds — at its point, over all of
// its words — with the chosen cost and method, under c (NodeBudget,
// NodeBudgetPerSecond, Degrade, Ablation, Metrics) and over the pool's
// objects alone: no index and no NN cache takes part. Result.Set holds
// ascending local ids; Pool.Ref maps them back to the caller's objects.
func (c *Config) SolvePool(ctx context.Context, p *Pool, cost CostKind, method Method) (Result, error) {
	return c.solveOn(ctx, source{pool: p}, p.query(), cost, method)
}
