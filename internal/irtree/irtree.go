// Package irtree implements the IR-tree: an R-tree over geo-textual
// objects in which every node carries the keyword union of its subtree
// (the node's inverted pseudo-document). It supports the textual-spatial
// primitives the CoSKQ algorithms are built from:
//
//   - keyword nearest neighbor NN(p, t): the object nearest to p whose
//     keyword set contains t;
//   - an incremental iterator over relevant objects (those sharing at
//     least one keyword with the query) in ascending distance: the one
//     candidate stream of the owner-driven searches.
//
// The tree is built over a dataset by STR bulk load, which matches the
// paper's memory-resident, build-once usage, and is immutable afterwards.
// The live index (internal/epoch) gets its next tree from Derive, which
// shares every untouched subtree — and its keyword union — with the tree
// it came from.
package irtree

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/pqueue"
	"coskq/internal/rtree"
)

// Tree is an IR-tree over one dataset.
type Tree struct {
	rt     *rtree.Tree
	ds     *dataset.Dataset
	nodeKw []kwds.Set // NodeID -> keyword union of the subtree
}

// Build constructs the IR-tree over ds with the given node fanout
// (0 for the default).
func Build(ds *dataset.Dataset, fanout int) *Tree {
	entries := make([]rtree.Entry, ds.Len())
	for i := range ds.Objects {
		entries[i] = rtree.Entry{P: ds.Objects[i].Loc, ID: uint32(ds.Objects[i].ID)}
	}
	rt := rtree.BulkLoad(entries, fanout)
	t := &Tree{rt: rt, ds: ds, nodeKw: make([]kwds.Set, rt.NumNodes())}
	t.annotate(rt.Root(), 0, new(unioner))
	return t
}

// Edit starts a batch editor over the tree's R-tree. The tree itself is
// never written: hand the editor's result to Derive.
func (t *Tree) Edit() *rtree.Editor { return t.rt.Edit() }

// Derive returns the IR-tree of the next generation: rt is the result of
// an Edit of t and ds the dataset its entry ids refer to. Only the nodes
// the editor created are annotated, bottom-up; every node rt shares with
// t keeps the union t computed — so ds must agree with t's dataset on
// every object whose root-to-leaf path the editor did not clone, and
// keyword ids must mean the same in both. The union table is copied whole,
// the unions of nodes rt no longer reaches included; what bounds it is the
// caller's periodic Build (epoch's re-pack).
func (t *Tree) Derive(rt *rtree.Tree, ds *dataset.Dataset) *Tree {
	d := &Tree{rt: rt, ds: ds, nodeKw: make([]kwds.Set, rt.NumNodes())}
	first := copy(d.nodeKw, t.nodeKw)
	d.annotate(rt.Root(), first, new(unioner))
	return d
}

// annotate computes, bottom-up, the keyword union of every node of n's
// subtree whose NodeID is at least first; nodes below first are taken as
// annotated, subtree and all.
func (t *Tree) annotate(n *rtree.Node, first int, u *unioner) {
	if n.NodeID < first {
		return
	}
	for _, c := range n.Children {
		t.annotate(c, first, u)
	}
	parts := u.parts[:0]
	for _, e := range n.Entries {
		parts = append(parts, t.ds.Object(dataset.ObjectID(e.ID)).Keywords)
	}
	for _, c := range n.Children {
		parts = append(parts, t.nodeKw[c.NodeID])
	}
	u.parts = parts
	t.nodeKw[n.NodeID] = u.unionAll(parts)
}

// unioner merges sorted keyword sets through a reusable mark bitmap: set a
// bit per id, then emit the set bits in ascending order, clearing as it
// goes. That is linear in the input where flatten-sort-dedup paid a sort
// per node — the price that dominated every build.
type unioner struct {
	marks []uint64
	parts []kwds.Set // the caller's part list, kept for its capacity
}

// unionAll returns the union of parts as a fresh set (nil when empty).
func (u *unioner) unionAll(parts []kwds.Set) kwds.Set {
	words := 0
	for _, p := range parts {
		if len(p) > 0 {
			words = max(words, int(p[len(p)-1])>>6+1) // sets are ascending: the last id is the largest
		}
	}
	if words > len(u.marks) {
		u.marks = slices.Grow(u.marks, words-len(u.marks))[:words]
	}
	marks := u.marks[:words]
	for _, p := range parts {
		for _, id := range p {
			marks[id>>6] |= 1 << (id & 63)
		}
	}
	n := 0
	for _, w := range marks {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	out := make(kwds.Set, 0, n)
	for i, w := range marks {
		for ; w != 0; w &= w - 1 {
			out = append(out, kwds.ID(i<<6+bits.TrailingZeros64(w)))
		}
		marks[i] = 0
	}
	return out
}

// CheckInvariants validates the tree against its dataset: the R-tree's
// structural invariants, every object indexed exactly once at its own
// location, and every node's keyword union equal to the union recomputed
// from below. It is intended for tests.
func (t *Tree) CheckInvariants() error {
	if err := t.rt.CheckInvariants(); err != nil {
		return err
	}
	if t.rt.Len() != t.ds.Len() {
		return fmt.Errorf("irtree: %d entries index %d objects", t.rt.Len(), t.ds.Len())
	}
	seen := make([]bool, t.ds.Len())
	var rec func(n *rtree.Node) (kwds.Set, error)
	rec = func(n *rtree.Node) (kwds.Set, error) {
		var want kwds.Set
		for _, e := range n.Entries {
			if int(e.ID) >= len(seen) || seen[e.ID] {
				return nil, fmt.Errorf("irtree: leaf %d: object id %d out of range or indexed twice", n.NodeID, e.ID)
			}
			seen[e.ID] = true
			o := t.ds.Object(dataset.ObjectID(e.ID))
			if o.ID != dataset.ObjectID(e.ID) || o.Loc != e.P {
				return nil, fmt.Errorf("irtree: leaf %d: entry %v disagrees with object %d at %v", n.NodeID, e, o.ID, o.Loc)
			}
			want = want.Union(o.Keywords)
		}
		for _, c := range n.Children {
			sub, err := rec(c)
			if err != nil {
				return nil, err
			}
			want = want.Union(sub)
		}
		if got := t.nodeKw[n.NodeID]; !slices.Equal(got, want) {
			return nil, fmt.Errorf("irtree: node %d carries union %v, its subtree holds %v", n.NodeID, got, want)
		}
		return want, nil
	}
	_, err := rec(t.rt.Root())
	return err
}

// Dataset returns the dataset the tree indexes.
func (t *Tree) Dataset() *dataset.Dataset { return t.ds }

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.rt.Len() }

// Height returns the tree height.
func (t *Tree) Height() int { return t.rt.Height() }

// Fanout returns the node capacity the tree was built with.
func (t *Tree) Fanout() int { return t.rt.Fanout() }

// Nodes returns the number of nodes in the tree.
func (t *Tree) Nodes() int { return t.rt.LiveNodes() }

// Root exposes the underlying root node, for tests.
func (t *Tree) Root() *rtree.Node { return t.rt.Root() }

// containsAny reports whether the node's subtree contains at least one of
// the query keywords. Query sets are tiny, so per-keyword binary search in
// the node union is the cheap direction.
func containsAny(nodeKw kwds.Set, query kwds.Set) bool {
	for _, id := range query {
		if nodeKw.Contains(id) {
			return true
		}
	}
	return false
}

// nnHeapItem is either an unexpanded node or a resolved object.
type nnHeapItem struct {
	node *rtree.Node
	obj  dataset.ObjectID
}

// NN returns the object nearest to p containing keyword kw, with its
// distance from p; ok is false when no object contains kw. It is a
// best-first search over the nodes whose keyword union contains kw.
func (t *Tree) NN(p geo.Point, kw kwds.ID) (dataset.ObjectID, float64, bool) {
	h := pqueue.New[nnHeapItem](64)
	root := t.rt.Root()
	if t.nodeKw[root.NodeID].Contains(kw) {
		h.Push(nnHeapItem{node: root}, root.Rect.MinDist(p))
	}
	for !h.Empty() {
		item, pri := h.Pop()
		if item.node == nil {
			return item.obj, pri, true
		}
		n := item.node
		if n.Leaf {
			for _, e := range n.Entries {
				o := t.ds.Object(dataset.ObjectID(e.ID))
				if !o.Keywords.Contains(kw) {
					continue
				}
				h.Push(nnHeapItem{obj: o.ID}, p.Dist(o.Loc))
			}
			continue
		}
		for _, c := range n.Children {
			if !t.nodeKw[c.NodeID].Contains(kw) {
				continue
			}
			h.Push(nnHeapItem{node: c}, c.Rect.MinDist(p))
		}
	}
	return 0, 0, false
}

// NN2 returns the object nearest to p containing keyword kw together with
// the distance of the SECOND-nearest such object (d2 = +Inf when the
// keyword appears in exactly one object; ok = false when in none). The gap
// d2-d1 is the cache-validity margin of the engine's cross-query NN cache:
// any point within (d2-d1)/2 of p provably has the same keyword NN
// (DESIGN.md §15). The traversal is the same best-first search as NN —
// the first object popped is bit-identical to NN's answer — continued
// until a second object surfaces.
func (t *Tree) NN2(p geo.Point, kw kwds.ID) (id dataset.ObjectID, d1, d2 float64, ok bool) {
	h := pqueue.New[nnHeapItem](64)
	root := t.rt.Root()
	if t.nodeKw[root.NodeID].Contains(kw) {
		h.Push(nnHeapItem{node: root}, root.Rect.MinDist(p))
	}
	found := false
	for !h.Empty() {
		item, pri := h.Pop()
		if item.node == nil {
			if !found {
				id, d1, found = item.obj, pri, true
				continue
			}
			return id, d1, pri, true
		}
		n := item.node
		if n.Leaf {
			for _, e := range n.Entries {
				o := t.ds.Object(dataset.ObjectID(e.ID))
				if !o.Keywords.Contains(kw) {
					continue
				}
				h.Push(nnHeapItem{obj: o.ID}, p.Dist(o.Loc))
			}
			continue
		}
		for _, c := range n.Children {
			if !t.nodeKw[c.NodeID].Contains(kw) {
				continue
			}
			h.Push(nnHeapItem{node: c}, c.Rect.MinDist(p))
		}
	}
	if found {
		return id, d1, math.Inf(1), true
	}
	return 0, 0, 0, false
}

// RelevantNNIterator yields relevant objects in ascending distance from a
// fixed point: the enumeration order of candidate query distance owners in
// the distance owner-driven algorithms.
type RelevantNNIterator struct {
	t     *Tree
	p     geo.Point
	qi    *kwds.QueryIndex
	h     *pqueue.Queue[nnHeapItem]
	limit float64
}

// NewRelevantNNIterator returns an iterator over relevant objects (those
// sharing a keyword with qi's query) ascending by distance from p.
func (t *Tree) NewRelevantNNIterator(p geo.Point, qi *kwds.QueryIndex) *RelevantNNIterator {
	it := &RelevantNNIterator{t: t, p: p, qi: qi, h: pqueue.New[nnHeapItem](64), limit: math.Inf(1)}
	root := t.rt.Root()
	if containsAny(t.nodeKw[root.NodeID], qi.Keywords()) {
		it.h.Push(nnHeapItem{node: root}, root.Rect.MinDist(p))
	}
	return it
}

// Limit informs the iterator that callers will never consume objects at
// distance ≥ d: subtrees and entries beyond the limit are skipped instead
// of queued. The owner-driven algorithms tighten the limit as their
// incumbent cost shrinks; a limit may only decrease (larger values are
// ignored).
//
// Contract: d must leave real slack above every object the caller still
// needs — pass the cost of an incumbent the caller holds, never a bound
// derived to sit one ulp above a needed object's distance. Subtrees are
// cut by Rect.MinDist (sqrt(dx²+dy²)) and objects by Point.Dist
// (math.Hypot), which can disagree by one ulp on the same offsets, so a
// limit of Nextafter(d(o, p), +Inf) may prune the leaf holding o.
func (it *RelevantNNIterator) Limit(d float64) {
	if d < it.limit {
		it.limit = d
	}
}

// Next returns the next relevant object and its distance from the query
// point, or ok=false when exhausted (or when everything left lies beyond
// the limit).
func (it *RelevantNNIterator) Next() (*dataset.Object, float64, bool) {
	fault.Hit(fault.RTreeVisit)
	for !it.h.Empty() {
		item, pri := it.h.Pop()
		if pri >= it.limit {
			return nil, 0, false // everything still queued is even farther
		}
		if item.node == nil {
			return it.t.ds.Object(item.obj), pri, true
		}
		n := item.node
		if n.Leaf {
			for _, e := range n.Entries {
				o := it.t.ds.Object(dataset.ObjectID(e.ID))
				d := it.p.Dist(o.Loc)
				if d >= it.limit {
					continue
				}
				if it.qi.MaskOf(o.Keywords) == 0 {
					continue
				}
				it.h.Push(nnHeapItem{obj: o.ID}, d)
			}
			continue
		}
		for _, c := range n.Children {
			d := c.Rect.MinDist(it.p)
			if d >= it.limit {
				continue
			}
			if !containsAny(it.t.nodeKw[c.NodeID], it.qi.Keywords()) {
				continue
			}
			it.h.Push(nnHeapItem{node: c}, d)
		}
	}
	return nil, 0, false
}

// KeywordNNIterator yields the objects containing one fixed keyword in
// ascending distance from a fixed point. The Cao baselines iterate the
// objects of the farthest-NN keyword this way.
type KeywordNNIterator struct {
	t  *Tree
	p  geo.Point
	kw kwds.ID
	h  *pqueue.Queue[nnHeapItem]
}

// NewKeywordNNIterator returns an iterator over objects containing kw,
// ascending by distance from p.
func (t *Tree) NewKeywordNNIterator(p geo.Point, kw kwds.ID) *KeywordNNIterator {
	it := &KeywordNNIterator{t: t, p: p, kw: kw, h: pqueue.New[nnHeapItem](64)}
	root := t.rt.Root()
	if t.nodeKw[root.NodeID].Contains(kw) {
		it.h.Push(nnHeapItem{node: root}, root.Rect.MinDist(p))
	}
	return it
}

// Next returns the next object containing the keyword and its distance
// from the iterator's point, or ok=false when exhausted.
func (it *KeywordNNIterator) Next() (*dataset.Object, float64, bool) {
	fault.Hit(fault.RTreeVisit)
	for !it.h.Empty() {
		item, pri := it.h.Pop()
		if item.node == nil {
			return it.t.ds.Object(item.obj), pri, true
		}
		n := item.node
		if n.Leaf {
			for _, e := range n.Entries {
				o := it.t.ds.Object(dataset.ObjectID(e.ID))
				if !o.Keywords.Contains(it.kw) {
					continue
				}
				it.h.Push(nnHeapItem{obj: o.ID}, it.p.Dist(o.Loc))
			}
			continue
		}
		for _, c := range n.Children {
			if !it.t.nodeKw[c.NodeID].Contains(it.kw) {
				continue
			}
			it.h.Push(nnHeapItem{node: c}, c.Rect.MinDist(it.p))
		}
	}
	return nil, 0, false
}

// TreeStats summarizes the index structure: node counts, height, and the
// size of the keyword-union annotations (the IR-tree's "inverted file"
// payload). Useful for the memory-residency accounting the paper's
// evaluation assumes.
type TreeStats struct {
	Objects       int
	Nodes         int
	Height        int
	KeywordUnions int // Σ over nodes of the subtree keyword-union lengths
}

// Stats walks the tree once and reports structural statistics.
func (t *Tree) Stats() TreeStats {
	s := TreeStats{Objects: t.rt.Len(), Height: t.rt.Height()}
	var rec func(n *rtree.Node)
	rec = func(n *rtree.Node) {
		s.Nodes++
		s.KeywordUnions += len(t.nodeKw[n.NodeID])
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.rt.Root())
	return s
}

// containsAll reports whether the node's subtree contains every query
// keyword (necessary condition for any single object below to cover all).
func containsAll(nodeKw kwds.Set, query kwds.Set) bool {
	for _, id := range query {
		if !nodeKw.Contains(id) {
			return false
		}
	}
	return true
}

// BooleanKNN answers the classic boolean kNN spatial keyword query of the
// related literature: the k objects nearest to p whose keyword sets cover
// ALL of query, ascending by distance (fewer when fewer exist). Node
// descent requires the subtree union to contain every query keyword.
func (t *Tree) BooleanKNN(p geo.Point, query kwds.Set, k int) []dataset.ObjectID {
	if k <= 0 {
		return nil
	}
	h := pqueue.New[nnHeapItem](64)
	root := t.rt.Root()
	if containsAll(t.nodeKw[root.NodeID], query) {
		h.Push(nnHeapItem{node: root}, root.Rect.MinDist(p))
	}
	out := make([]dataset.ObjectID, 0, k)
	for !h.Empty() && len(out) < k {
		item, _ := h.Pop()
		if item.node == nil {
			out = append(out, item.obj)
			continue
		}
		n := item.node
		if n.Leaf {
			for _, e := range n.Entries {
				o := t.ds.Object(dataset.ObjectID(e.ID))
				if !o.Keywords.Covers(query) {
					continue
				}
				h.Push(nnHeapItem{obj: o.ID}, p.Dist(o.Loc))
			}
			continue
		}
		for _, c := range n.Children {
			if !containsAll(t.nodeKw[c.NodeID], query) {
				continue
			}
			h.Push(nnHeapItem{node: c}, c.Rect.MinDist(p))
		}
	}
	return out
}
