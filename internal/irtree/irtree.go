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
// Build packs the tree over a dataset by STR (Sort-Tile-Recursive) bulk
// load, which matches the paper's memory-resident, build-once usage, and
// annotates every node. An annotated node is never written again, which
// is what lets the live index (internal/epoch) hand generations to readers
// without locks: an Editor (edit.go) derives the next tree by copying only
// the root-to-leaf paths a batch changes and annotates exactly the nodes
// it created, so every untouched subtree — inverted file included — is
// shared with the tree it came from. Pack (pack.go) is the bare STR
// packing, unannotated, that the shard partitioner cuts along subtrees.
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
)

// Entry is a leaf payload: an indexed point and its object id.
type Entry struct {
	P  geo.Point
	ID uint32
}

// Node is an IR-tree node. Leaf nodes carry Entries; internal nodes carry
// Children. Rect is the minimum bounding rectangle of the subtree. Part i
// of a node — entry i of a leaf, child i of an inner node — is bit i of
// its inverted file's slot masks: slots[j] holds the parts whose keywords
// contain kw[j], and kw is the subtree's sorted keyword union. annotate
// fills both once; an annotated node is never written again.
type Node struct {
	Rect     geo.Rect
	Leaf     bool
	Children []*Node
	Entries  []Entry

	kw        kwds.Set
	slots     []uint64
	annotated bool
}

// Tree is an IR-tree over one dataset, made by Build or an Editor and
// immutable afterwards, so concurrent use is safe.
type Tree struct {
	root       *Node
	ds         *dataset.Dataset
	size       int // entries
	maxEntries int
	live       int // nodes reachable from root
}

// DefaultFanout is the node capacity used when 0 is passed. The paper's
// IR-tree experiments use page-sized nodes; 32 entries is a standard
// in-memory choice.
const DefaultFanout = 32

// MaxFanout is the largest node capacity: a node addresses its parts as
// the bits of one uint64.
const MaxFanout = 64

// Build constructs the IR-tree over ds with the given node fanout
// (0 for the default).
func Build(ds *dataset.Dataset, fanout int) *Tree {
	entries := make([]Entry, ds.Len())
	for i := range ds.Objects {
		entries[i] = Entry{P: ds.Objects[i].Loc, ID: uint32(ds.Objects[i].ID)}
	}
	t := Pack(entries, fanout)
	t.ds = ds
	t.annotate(t.root, new(unioner))
	return t
}

// annotate computes, bottom-up, the inverted file of every node of n's
// subtree that has none yet; an annotated node is taken as annotated
// subtree and all.
func (t *Tree) annotate(n *Node, u *unioner) {
	if n.annotated {
		return
	}
	for _, c := range n.Children {
		t.annotate(c, u)
	}
	parts := u.parts[:0]
	for _, e := range n.Entries {
		parts = append(parts, t.ds.Object(dataset.ObjectID(e.ID)).Keywords)
	}
	for _, c := range n.Children {
		parts = append(parts, c.kw)
	}
	u.parts = parts
	if len(parts) > MaxFanout {
		panic(fmt.Sprintf("irtree: node at %v has %d slots, more than %d", n.Rect, len(parts), MaxFanout))
	}
	n.kw, n.slots = u.unionAll(parts)
	n.annotated = true
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
func (n *Node) slotsOf(kw kwds.ID) uint64 {
	if i, ok := slices.BinarySearch(n.kw, kw); ok {
		return n.slots[i]
	}
	return 0
}

// CheckInvariants validates the tree against its dataset in one pass over
// its nodes: tight rectangles, no overfull node, no empty node but an
// empty root leaf, all leaves at one depth, exact entry and node counts,
// every object indexed exactly once at its own location, and every node's
// inverted file — keyword union and slot column — equal to the one
// recomputed from below. It is intended for tests.
func (t *Tree) CheckInvariants() error {
	if t.size != t.ds.Len() {
		return fmt.Errorf("irtree: %d entries index %d objects", t.size, t.ds.Len())
	}
	seen := make([]bool, t.ds.Len())
	entries, nodes := 0, 0
	// rec checks the subtree of n and returns its height and keyword union.
	var rec func(n *Node, isRoot bool) (int, kwds.Set, error)
	rec = func(n *Node, isRoot bool) (int, kwds.Set, error) {
		nodes++
		switch {
		case !n.annotated:
			return 0, nil, fmt.Errorf("irtree: node at %v carries no inverted file", n.Rect)
		case len(n.Entries)+len(n.Children) == 0 && !(isRoot && n.Leaf):
			return 0, nil, fmt.Errorf("irtree: empty node (leaf %v) below the root", n.Leaf)
		case len(n.Entries) > t.maxEntries || len(n.Children) > t.maxEntries:
			return 0, nil, fmt.Errorf("irtree: node at %v overfull (%d entries, %d children > %d)", n.Rect, len(n.Entries), len(n.Children), t.maxEntries)
		case tightRect(n) != n.Rect:
			return 0, nil, fmt.Errorf("irtree: node rect %v not tight (want %v)", n.Rect, tightRect(n))
		}
		parts := make([]kwds.Set, 0, len(n.Entries)+len(n.Children))
		for _, e := range n.Entries {
			if int(e.ID) >= len(seen) || seen[e.ID] {
				return 0, nil, fmt.Errorf("irtree: leaf at %v: object id %d out of range or indexed twice", n.Rect, e.ID)
			}
			seen[e.ID] = true
			o := t.ds.Object(dataset.ObjectID(e.ID))
			if o.ID != dataset.ObjectID(e.ID) || o.Loc != e.P {
				return 0, nil, fmt.Errorf("irtree: entry %v disagrees with object %d at %v", e, o.ID, o.Loc)
			}
			parts = append(parts, o.Keywords)
		}
		entries += len(n.Entries)
		height := 0
		for i, c := range n.Children {
			h, sub, err := rec(c, false)
			if err != nil {
				return 0, nil, err
			}
			if i > 0 && h != height {
				return 0, nil, fmt.Errorf("irtree: node at %v has leaves at multiple depths", n.Rect)
			}
			height = h
			parts = append(parts, sub)
		}
		var want kwds.Set
		for _, p := range parts {
			want = want.Union(p)
		}
		if !slices.Equal(n.kw, want) {
			return 0, nil, fmt.Errorf("irtree: node at %v carries union %v, its subtree holds %v", n.Rect, n.kw, want)
		}
		if len(n.slots) != len(want) {
			return 0, nil, fmt.Errorf("irtree: node at %v has %d slot masks for %d keywords", n.Rect, len(n.slots), len(want))
		}
		for i, kw := range want {
			var s uint64
			for j, p := range parts {
				if p.Contains(kw) {
					s |= 1 << j
				}
			}
			if n.slots[i] != s {
				return 0, nil, fmt.Errorf("irtree: node at %v holds keyword %d in slots %#x, its parts in %#x", n.Rect, kw, n.slots[i], s)
			}
		}
		return height + 1, want, nil
	}
	if _, _, err := rec(t.root, true); err != nil {
		return err
	}
	if entries != t.size {
		return fmt.Errorf("irtree: size %d but %d reachable entries", t.size, entries)
	}
	if nodes != t.live {
		return fmt.Errorf("irtree: %d live nodes recorded but %d reachable", t.live, nodes)
	}
	return nil
}

// Dataset returns the dataset the tree indexes.
func (t *Tree) Dataset() *dataset.Dataset { return t.ds }

// Root returns the root node. Callers must treat the structure as
// read-only.
func (t *Tree) Root() *Node { return t.root }

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.size }

// Nodes returns the number of nodes reachable from the root.
func (t *Tree) Nodes() int { return t.live }

// Fanout returns the node capacity the tree was built with.
func (t *Tree) Fanout() int { return t.maxEntries }

// Height returns the number of levels (a single leaf root has height 1).
func (t *Tree) Height() int {
	h, n := 1, t.root
	for !n.Leaf {
		h++
		n = n.Children[0]
	}
	return h
}

// nnHeapItem is either an unexpanded node or a resolved object; mask is
// the object's query mask in the relevant walk.
type nnHeapItem struct {
	node *Node
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
	root := t.root
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
		pushSlots(&w.h, item.node, item.node.slotsOf(w.kw), w.p)
	}
	return 0, 0, false
}

// pushSlots queues the slots s of n: entries at their distance from p,
// children at their rectangle's.
func pushSlots(h *pqueue.Queue[nnHeapItem], n *Node, s uint64, p geo.Point) {
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
	root := t.root
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
		var masks [MaxFanout]kwds.Mask
		var relevant uint64
		for b, kw := range it.qi.Keywords() {
			s := n.slotsOf(kw)
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
	s := TreeStats{Objects: t.size, Height: t.Height()}
	var rec func(n *Node)
	rec = func(n *Node) {
		s.Nodes++
		s.KeywordUnions += len(n.kw)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.root)
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
	root := t.root
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
			s &= n.slotsOf(kw)
		}
		pushSlots(h, n, s, p)
	}
	return out
}
