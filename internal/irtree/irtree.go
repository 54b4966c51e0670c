// Package irtree implements the IR-tree: an R-tree over geo-textual
// objects in which every node carries an inverted file: the keyword union
// of its subtree and, per keyword, the bitmask of its slots — children of
// an inner node, entries of a leaf — that hold it. A walk therefore pays
// one lookup per (node, query keyword) and reads an object only when it
// yields it. It supports the textual-spatial primitives the CoSKQ
// algorithms are built from:
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
// shares every untouched subtree — and its inverted file — with the tree
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
	slots  [][]uint64 // NodeID -> per nodeKw[i], the node's slots holding it
}

// Build constructs the IR-tree over ds with the given node fanout
// (0 for the default).
func Build(ds *dataset.Dataset, fanout int) *Tree {
	entries := make([]rtree.Entry, ds.Len())
	for i := range ds.Objects {
		entries[i] = rtree.Entry{P: ds.Objects[i].Loc, ID: uint32(ds.Objects[i].ID)}
	}
	rt := rtree.BulkLoad(entries, fanout)
	t := &Tree{rt: rt, ds: ds, nodeKw: make([]kwds.Set, rt.NumNodes()), slots: make([][]uint64, rt.NumNodes())}
	t.annotate(rt.Root(), 0, new(unioner))
	return t
}

// Edit starts a batch editor over the tree's R-tree. The tree itself is
// never written: hand the editor's result to Derive.
func (t *Tree) Edit() *rtree.Editor { return t.rt.Edit() }

// Derive returns the IR-tree of the next generation: rt is the result of
// an Edit of t and ds the dataset its entry ids refer to. Only the nodes
// the editor created are annotated, bottom-up; every node rt shares with
// t keeps the inverted file t computed — so ds must agree with t's dataset
// on every object whose root-to-leaf path the editor did not clone, and
// keyword ids must mean the same in both. Both tables are copied whole,
// the entries of nodes rt no longer reaches included; what bounds them is
// the caller's periodic Build (epoch's re-pack).
func (t *Tree) Derive(rt *rtree.Tree, ds *dataset.Dataset) *Tree {
	d := &Tree{rt: rt, ds: ds, nodeKw: make([]kwds.Set, rt.NumNodes()), slots: make([][]uint64, rt.NumNodes())}
	first := copy(d.nodeKw, t.nodeKw)
	copy(d.slots, t.slots)
	d.annotate(rt.Root(), first, new(unioner))
	return d
}

// annotate computes, bottom-up, the inverted file of every node of n's
// subtree whose NodeID is at least first; nodes below first are taken as
// annotated, subtree and all. Part i of a node — entry i of a leaf, child
// i of an inner node — is bit i of its slot masks, so a node may hold at
// most rtree.MaxFanout of them.
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
	if len(parts) > rtree.MaxFanout {
		panic(fmt.Sprintf("irtree: node %d has %d slots, more than %d", n.NodeID, len(parts), rtree.MaxFanout))
	}
	t.nodeKw[n.NodeID], t.slots[n.NodeID] = u.unionAll(parts)
}

// unioner merges sorted keyword sets through a reusable mark bitmap: set a
// bit per id, then emit the set bits in ascending order, clearing as it
// goes. That is linear in the input where flatten-sort-dedup paid a sort
// per node — the price that dominated every build. The bitmap doubles as
// the rank table that places each part's ids in the union: an id's index
// is the set bits before it, rank[word] plus a popcount within its word.
type unioner struct {
	marks []uint64
	rank  []int32    // per marks word, the number of set bits before it
	parts []kwds.Set // the caller's part list, kept for its capacity
}

// unionAll returns the union of at most 64 parts as a fresh set (nil when
// empty) with its slot column: slots[i] has bit j set when parts[j] holds
// union[i].
func (u *unioner) unionAll(parts []kwds.Set) (kwds.Set, []uint64) {
	words := 0
	for _, p := range parts {
		if len(p) > 0 {
			words = max(words, int(p[len(p)-1])>>6+1) // sets are ascending: the last id is the largest
		}
	}
	if words > len(u.marks) {
		u.marks = slices.Grow(u.marks, words-len(u.marks))[:words]
		u.rank = slices.Grow(u.rank, words-len(u.rank))[:words]
	}
	marks, rank := u.marks[:words], u.rank[:words]
	for _, p := range parts {
		for _, id := range p {
			marks[id>>6] |= 1 << (id & 63)
		}
	}
	n := 0
	for i, w := range marks {
		rank[i] = int32(n)
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil, nil
	}
	slots := make([]uint64, n)
	for j, p := range parts {
		for _, id := range p {
			w := id >> 6
			slots[int(rank[w])+bits.OnesCount64(marks[w]&(1<<(id&63)-1))] |= 1 << j
		}
	}
	out := make(kwds.Set, 0, n)
	for i, w := range marks {
		for ; w != 0; w &= w - 1 {
			out = append(out, kwds.ID(i<<6+bits.TrailingZeros64(w)))
		}
		marks[i] = 0
	}
	return out, slots
}

// slotsOf returns the slots of n that hold kw: one binary search of the
// node's union.
func (t *Tree) slotsOf(n *rtree.Node, kw kwds.ID) uint64 {
	if i, ok := slices.BinarySearch(t.nodeKw[n.NodeID], kw); ok {
		return t.slots[n.NodeID][i]
	}
	return 0
}

// CheckInvariants validates the tree against its dataset: the R-tree's
// structural invariants, every object indexed exactly once at its own
// location, and every node's inverted file — keyword union and slot column
// — equal to the one recomputed from below. It is intended for tests.
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
		var parts []kwds.Set
		for _, e := range n.Entries {
			if int(e.ID) >= len(seen) || seen[e.ID] {
				return nil, fmt.Errorf("irtree: leaf %d: object id %d out of range or indexed twice", n.NodeID, e.ID)
			}
			seen[e.ID] = true
			o := t.ds.Object(dataset.ObjectID(e.ID))
			if o.ID != dataset.ObjectID(e.ID) || o.Loc != e.P {
				return nil, fmt.Errorf("irtree: leaf %d: entry %v disagrees with object %d at %v", n.NodeID, e, o.ID, o.Loc)
			}
			parts = append(parts, o.Keywords)
		}
		for _, c := range n.Children {
			sub, err := rec(c)
			if err != nil {
				return nil, err
			}
			parts = append(parts, sub)
		}
		var want kwds.Set
		for _, p := range parts {
			want = want.Union(p)
		}
		if got := t.nodeKw[n.NodeID]; !slices.Equal(got, want) {
			return nil, fmt.Errorf("irtree: node %d carries union %v, its subtree holds %v", n.NodeID, got, want)
		}
		if got := t.slots[n.NodeID]; len(got) != len(want) {
			return nil, fmt.Errorf("irtree: node %d has %d slot masks for %d keywords", n.NodeID, len(got), len(want))
		}
		for i, kw := range want {
			var s uint64
			for j, p := range parts {
				if p.Contains(kw) {
					s |= 1 << j
				}
			}
			if got := t.slots[n.NodeID][i]; got != s {
				return nil, fmt.Errorf("irtree: node %d holds keyword %d in slots %#x, its parts in %#x", n.NodeID, kw, got, s)
			}
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

// nnHeapItem is either an unexpanded node or a resolved object; mask is
// the object's query mask in the relevant walk.
type nnHeapItem struct {
	node *rtree.Node
	obj  dataset.ObjectID
	mask kwds.Mask
}

// keywordWalk is the best-first search over the objects containing one
// keyword behind NN, NN2 and KeywordNNIterator: every node expansion
// pushes exactly the slots that hold kw.
type keywordWalk struct {
	t  *Tree
	p  geo.Point
	kw kwds.ID
	h  pqueue.Queue[nnHeapItem] // by value, so a walk on the stack keeps it there
}

func (t *Tree) keywordWalk(p geo.Point, kw kwds.ID) keywordWalk {
	w := keywordWalk{t: t, p: p, kw: kw, h: *pqueue.New[nnHeapItem](64)}
	root := t.rt.Root()
	w.h.Push(nnHeapItem{node: root}, root.Rect.MinDist(p))
	return w
}

// next returns the next object containing the keyword and its distance,
// or ok=false when there is none.
func (w *keywordWalk) next() (dataset.ObjectID, float64, bool) {
	for !w.h.Empty() {
		item, pri := w.h.Pop()
		if item.node == nil {
			return item.obj, pri, true
		}
		pushSlots(&w.h, item.node, w.t.slotsOf(item.node, w.kw), w.p)
	}
	return 0, 0, false
}

// pushSlots queues the slots s of n: entries at their distance from p,
// children at their rectangle's.
func pushSlots(h *pqueue.Queue[nnHeapItem], n *rtree.Node, s uint64, p geo.Point) {
	for ; s != 0; s &= s - 1 {
		i := bits.TrailingZeros64(s)
		if n.Leaf {
			e := n.Entries[i]
			h.Push(nnHeapItem{obj: dataset.ObjectID(e.ID)}, p.Dist(e.P))
		} else {
			c := n.Children[i]
			h.Push(nnHeapItem{node: c}, c.Rect.MinDist(p))
		}
	}
}

// NN returns the object nearest to p containing keyword kw, with its
// distance from p; ok is false when no object contains kw. It is a
// best-first search over the nodes whose keyword union contains kw.
func (t *Tree) NN(p geo.Point, kw kwds.ID) (dataset.ObjectID, float64, bool) {
	w := t.keywordWalk(p, kw)
	return w.next()
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
	w := t.keywordWalk(p, kw)
	if id, d1, ok = w.next(); !ok {
		return 0, 0, 0, false
	}
	if _, d2, ok = w.next(); !ok {
		d2 = math.Inf(1)
	}
	return id, d1, d2, true
}

// RelevantNNIterator yields relevant objects in ascending distance from a
// fixed point: the enumeration order of candidate query distance owners in
// the distance owner-driven algorithms.
type RelevantNNIterator struct {
	t     *Tree
	p     geo.Point
	qi    *kwds.QueryIndex
	h     pqueue.Queue[nnHeapItem]
	limit float64
	mask  kwds.Mask // of the object Next returned last
}

// NewRelevantNNIterator returns an iterator over relevant objects (those
// sharing a keyword with qi's query) ascending by distance from p.
func (t *Tree) NewRelevantNNIterator(p geo.Point, qi *kwds.QueryIndex) *RelevantNNIterator {
	it := &RelevantNNIterator{t: t, p: p, qi: qi, h: *pqueue.New[nnHeapItem](64), limit: math.Inf(1)}
	root := t.rt.Root()
	it.h.Push(nnHeapItem{node: root}, root.Rect.MinDist(p))
	return it
}

// Limit informs the iterator that callers will never consume objects at
// distance ≥ d: subtrees and entries beyond the limit are skipped instead
// of queued. The owner-driven algorithms tighten the limit as their
// incumbent cost shrinks; a limit may only decrease (larger values are
// ignored).
//
// Contract: pass the cost of a set the caller holds, never a bound
// derived from a needed object's distance: subtrees are cut by
// Rect.MinDist and objects by Point.Dist, which can disagree by one ulp.
func (it *RelevantNNIterator) Limit(d float64) {
	if d < it.limit {
		it.limit = d
	}
}

// Next returns the next relevant object and its distance from the query
// point, or ok=false when exhausted (or when everything left lies beyond
// the limit). Mask then reports the object's query mask.
func (it *RelevantNNIterator) Next() (*dataset.Object, float64, bool) {
	fault.Hit(fault.RTreeVisit)
	for !it.h.Empty() {
		item, pri := it.h.Pop()
		if pri >= it.limit {
			return nil, 0, false // everything still queued is even farther
		}
		if item.node == nil {
			it.mask = item.mask
			return it.t.ds.Object(item.obj), pri, true
		}
		// A leaf's entry i carries its query mask: bit b for each query
		// keyword b whose slots include i.
		n := item.node
		var masks [rtree.MaxFanout]kwds.Mask
		var relevant uint64
		for b, kw := range it.qi.Keywords() {
			s := it.t.slotsOf(n, kw)
			relevant |= s
			for ; n.Leaf && s != 0; s &= s - 1 {
				masks[bits.TrailingZeros64(s)] |= 1 << b
			}
		}
		for ; relevant != 0; relevant &= relevant - 1 {
			i := bits.TrailingZeros64(relevant)
			if n.Leaf {
				e := n.Entries[i]
				if d := it.p.Dist(e.P); d < it.limit {
					it.h.Push(nnHeapItem{obj: dataset.ObjectID(e.ID), mask: masks[i]}, d)
				}
				continue
			}
			c := n.Children[i]
			if d := c.Rect.MinDist(it.p); d < it.limit {
				it.h.Push(nnHeapItem{node: c}, d)
			}
		}
	}
	return nil, 0, false
}

// Mask returns the query mask of the object Next returned last: the bits
// of the query keywords it holds, never zero.
func (it *RelevantNNIterator) Mask() kwds.Mask { return it.mask }

// KeywordNNIterator yields the objects containing one fixed keyword in
// ascending distance from a fixed point. The Cao baselines iterate the
// objects of the farthest-NN keyword this way.
type KeywordNNIterator struct {
	w keywordWalk
}

// NewKeywordNNIterator returns an iterator over objects containing kw,
// ascending by distance from p.
func (t *Tree) NewKeywordNNIterator(p geo.Point, kw kwds.ID) *KeywordNNIterator {
	return &KeywordNNIterator{w: t.keywordWalk(p, kw)}
}

// Next returns the next object containing the keyword and its distance
// from the iterator's point, or ok=false when exhausted.
func (it *KeywordNNIterator) Next() (*dataset.Object, float64, bool) {
	fault.Hit(fault.RTreeVisit)
	id, d, ok := it.w.next()
	if !ok {
		return nil, 0, false
	}
	return it.w.t.ds.Object(id), d, true
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

// BooleanKNN answers the classic boolean kNN spatial keyword query of the
// related literature: the k objects nearest to p whose keyword sets cover
// ALL of query, ascending by distance (fewer when fewer exist). A node
// expansion pushes the slots that hold every query keyword.
func (t *Tree) BooleanKNN(p geo.Point, query kwds.Set, k int) []dataset.ObjectID {
	if k <= 0 {
		return nil
	}
	h := pqueue.New[nnHeapItem](64)
	root := t.rt.Root()
	h.Push(nnHeapItem{node: root}, root.Rect.MinDist(p))
	out := make([]dataset.ObjectID, 0, k)
	for !h.Empty() && len(out) < k {
		item, _ := h.Pop()
		if item.node == nil {
			out = append(out, item.obj)
			continue
		}
		n := item.node
		s := ^uint64(0) >> (64 - len(n.Entries) - len(n.Children))
		for _, kw := range query {
			s &= t.slotsOf(n, kw)
		}
		pushSlots(h, n, s, p)
	}
	return out
}
