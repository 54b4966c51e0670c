package core

// The candidate source (DESIGN.md §4.1). Every read a search makes of the
// objects it ranks goes through one source: the relevant stream, the
// keyword stream, keyword NN and NN2, and object access for Brute and cost
// evaluation. It has two arms:
//
//   - the tree arm: an engine's dataset and IR-tree;
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
// and ds.
type source struct {
	tree *irtree.Tree
	ds   *dataset.Dataset
	pool *Pool
}

// treeSource is the engine's own arm.
func (e *Engine) treeSource() source { return source{tree: e.Tree, ds: e.DS} }

// object returns the object with the given id.
func (src source) object(id dataset.ObjectID) *dataset.Object {
	if p := src.pool; p != nil {
		return &p.ents[id].Object
	}
	return src.ds.Object(id)
}

// maskOf returns the query keywords o covers. On the pool arm the query
// is always the pool's whole word list (Pool.query), so the stored mask
// is already over qi's bits.
func (src source) maskOf(qi *kwds.QueryIndex, o *dataset.Object) kwds.Mask {
	if p := src.pool; p != nil {
		return p.ents[o.ID].mask
	}
	return qi.MaskOf(o.Keywords)
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
// ascending by distance.
func (src source) keyword(p geo.Point, kw kwds.ID) keywordStream {
	if pl := src.pool; pl != nil {
		pl.mustStreamFrom(p)
		return keywordStream{pool: pl, list: pl.words[kw]}
	}
	return keywordStream{it: src.tree.NewKeywordNNIterator(p, kw)}
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
		pts = append(pts, src.object(id).Loc)
	}
	return c.eval(q, pts)
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

// Next returns the next relevant object and its distance, or ok=false at
// the end of the stream or the limit. Every advance passes the
// fault.RTreeVisit point, on either arm.
func (r *relevantStream) Next() (*dataset.Object, float64, bool) {
	if r.it != nil {
		return r.it.Next()
	}
	fault.Hit(fault.RTreeVisit)
	p := r.pool
	if r.next == len(p.ents) || p.ents[r.next].d >= r.limit {
		return nil, 0, false
	}
	e := &p.ents[r.next]
	r.next++
	return &e.Object, e.d, true
}

// Mask returns the query mask of the object Next returned last.
func (r *relevantStream) Mask() kwds.Mask {
	if r.it != nil {
		return r.it.Mask()
	}
	return r.pool.ents[r.next-1].mask
}

// keywordStream is the keyword stream of one search: the tree's
// best-first iterator, or a cursor over the pool's list for the word.
type keywordStream struct {
	it   *irtree.KeywordNNIterator
	pool *Pool
	list []int32 // the pool arm's entries not yet yielded
}

// Next returns the next object holding the keyword and its distance, or
// ok=false when exhausted, passing fault.RTreeVisit on either arm.
func (k *keywordStream) Next() (*dataset.Object, float64, bool) {
	if k.it != nil {
		return k.it.Next()
	}
	fault.Hit(fault.RTreeVisit)
	if len(k.list) == 0 {
		return nil, 0, false
	}
	e := &k.pool.ents[k.list[0]]
	k.list = k.list[1:]
	return &e.Object, e.d, true
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

// poolEntry is one pooled object; its Object.ID is its local id and its
// Keywords stay nil (the mask is the object's whole textual content).
type poolEntry struct {
	dataset.Object
	d    float64
	mask kwds.Mask
	key  uint64
	ref  int32
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
		p.ents[next[b]] = poolEntry{Object: dataset.Object{Loc: o.Loc}, d: r.d, mask: o.Mask & full, key: o.Key, ref: o.Ref}
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
		p.ents[j].ID = dataset.ObjectID(j)
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
	best, d1, d2 := list[0], at.Dist(p.ents[list[0]].Loc), math.Inf(1)
	for _, i := range list[1:] {
		switch d := at.Dist(p.ents[i].Loc); {
		case d < d1:
			best, d1, d2 = i, d, d1
		case d < d2:
			d2 = d
		}
	}
	return dataset.ObjectID(best), d1, d2, true
}

// SolvePool answers the query a pool holds — at its point, over all of
// its words — with the chosen cost and method, under e's configuration
// (NodeBudget, NodeBudgetPerSecond, Degrade, Ablation, Metrics) and over
// the pool's objects instead of e's indexes; e's NNCache, which indexes
// e's tree, is not consulted. Result.Set holds ascending local ids;
// Pool.Ref maps them back to the caller's objects.
func (e *Engine) SolvePool(ctx context.Context, p *Pool, cost CostKind, method Method) (Result, error) {
	return e.solveOn(ctx, source{pool: p}, p.query(), cost, method)
}
