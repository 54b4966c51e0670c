// Package rtree implements a build-once in-memory R-tree over planar
// points: STR (Sort-Tile-Recursive) bulk loading and the node layout. It
// carries no search of its own and no dynamic maintenance — the indexes
// of this system are rebuilt, never edited (internal/epoch).
//
// The IR-tree (package irtree) builds on this structure by annotating every
// node with the keyword union of its subtree and runs every traversal; the
// shard partitioner cuts the tree along subtrees. The node layout is
// therefore exported within the module.
package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"coskq/internal/geo"
)

// Entry is a leaf payload: an indexed point and its external identifier
// (the dataset ObjectID in this system).
type Entry struct {
	P  geo.Point
	ID uint32
}

// Node is an R-tree node. Leaf nodes carry Entries; internal nodes carry
// Children. Rect is the minimum bounding rectangle of the subtree.
//
// NodeID is a dense identifier assigned at construction, used by the
// IR-tree to attach per-node keyword posting data without widening this
// struct.
type Node struct {
	NodeID   int
	Rect     geo.Rect
	Leaf     bool
	Children []*Node
	Entries  []Entry
}

// Tree is an R-tree, constructed with BulkLoad (STR packing) and immutable
// afterwards, so concurrent use is safe.
type Tree struct {
	root       *Node
	size       int
	maxEntries int
	nextID     int
}

// DefaultFanout is the node capacity used when 0 is passed for maxEntries.
// The paper's IR-tree experiments use page-sized nodes; 32 entries is a
// standard in-memory choice.
const DefaultFanout = 32

func (t *Tree) newNode(leaf bool) *Node {
	n := &Node{NodeID: t.nextID, Leaf: leaf, Rect: geo.EmptyRect()}
	t.nextID++
	return n
}

// BulkLoad builds a tree over entries using Sort-Tile-Recursive packing
// with the given node capacity (0 for DefaultFanout). The entries slice is
// reordered in place.
func BulkLoad(entries []Entry, maxEntries int) *Tree {
	maxE := maxEntries
	if maxE <= 0 {
		maxE = DefaultFanout
	}
	if maxE < 4 {
		maxE = 4
	}
	t := &Tree{maxEntries: maxE, size: len(entries)}
	if len(entries) == 0 {
		t.root = t.newNode(true)
		return t
	}

	// Leaf level: sort by x, cut into vertical slabs of S runs, sort each
	// slab by y, pack runs of maxE entries.
	slices.SortFunc(entries, func(a, b Entry) int { return cmp.Compare(a.P.X, b.P.X) })
	leafCount := (len(entries) + maxE - 1) / maxE
	slabs := int(math.Ceil(math.Sqrt(float64(leafCount))))
	perSlab := slabs * maxE

	var level []*Node
	for start := 0; start < len(entries); start += perSlab {
		end := start + perSlab
		if end > len(entries) {
			end = len(entries)
		}
		slab := entries[start:end]
		slices.SortFunc(slab, func(a, b Entry) int { return cmp.Compare(a.P.Y, b.P.Y) })
		for ls := 0; ls < len(slab); ls += maxE {
			le := ls + maxE
			if le > len(slab) {
				le = len(slab)
			}
			n := t.newNode(true)
			n.Entries = append(n.Entries, slab[ls:le]...)
			for _, e := range n.Entries {
				n.Rect = n.Rect.ExtendPoint(e.P)
			}
			level = append(level, n)
		}
	}

	// Upper levels: pack child nodes by center, same tiling.
	for len(level) > 1 {
		slices.SortFunc(level, func(a, b *Node) int { return cmp.Compare(a.Rect.Center().X, b.Rect.Center().X) })
		nodeCount := (len(level) + maxE - 1) / maxE
		slabs := int(math.Ceil(math.Sqrt(float64(nodeCount))))
		perSlab := slabs * maxE
		var next []*Node
		for start := 0; start < len(level); start += perSlab {
			end := start + perSlab
			if end > len(level) {
				end = len(level)
			}
			slab := level[start:end]
			slices.SortFunc(slab, func(a, b *Node) int { return cmp.Compare(a.Rect.Center().Y, b.Rect.Center().Y) })
			for ls := 0; ls < len(slab); ls += maxE {
				le := ls + maxE
				if le > len(slab) {
					le = len(slab)
				}
				n := t.newNode(false)
				n.Children = append(n.Children, slab[ls:le]...)
				for _, c := range n.Children {
					n.Rect = n.Rect.Union(c.Rect)
				}
				next = append(next, n)
			}
		}
		level = next
	}
	t.root = level[0]
	return t
}

// Root returns the root node. Callers must treat the structure as
// read-only.
func (t *Tree) Root() *Node { return t.root }

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return t.size }

// NumNodes returns the number of nodes ever allocated (dense NodeID bound).
func (t *Tree) NumNodes() int { return t.nextID }

// Height returns the number of levels (a single leaf root has height 1).
func (t *Tree) Height() int {
	h, n := 1, t.root
	for !n.Leaf {
		h++
		n = n.Children[0]
	}
	return h
}

// CheckInvariants validates the structural invariants of the tree. It is
// O(n log n) and intended for tests.
func (t *Tree) CheckInvariants() error {
	count, err := t.check(t.root, true, -1)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d but %d reachable entries", t.size, count)
	}
	return nil
}

func (t *Tree) check(n *Node, isRoot bool, depthOfLeaves int) (int, error) {
	if n.Leaf {
		if !isRoot && len(n.Entries) == 0 {
			return 0, fmt.Errorf("rtree: empty non-root leaf %d", n.NodeID)
		}
		if len(n.Entries) > t.maxEntries {
			return 0, fmt.Errorf("rtree: leaf %d overfull (%d > %d)", n.NodeID, len(n.Entries), t.maxEntries)
		}
		r := geo.EmptyRect()
		for _, e := range n.Entries {
			if !n.Rect.ContainsPoint(e.P) {
				return 0, fmt.Errorf("rtree: leaf %d rect %v misses entry %v", n.NodeID, n.Rect, e.P)
			}
			r = r.ExtendPoint(e.P)
		}
		if len(n.Entries) > 0 && r != n.Rect {
			return 0, fmt.Errorf("rtree: leaf %d rect %v not tight (want %v)", n.NodeID, n.Rect, r)
		}
		return len(n.Entries), nil
	}
	if len(n.Children) == 0 {
		return 0, fmt.Errorf("rtree: internal node %d has no children", n.NodeID)
	}
	if len(n.Children) > t.maxEntries {
		return 0, fmt.Errorf("rtree: internal node %d overfull (%d > %d)", n.NodeID, len(n.Children), t.maxEntries)
	}
	total := 0
	r := geo.EmptyRect()
	for _, c := range n.Children {
		if !n.Rect.ContainsRect(c.Rect) {
			return 0, fmt.Errorf("rtree: node %d rect %v misses child rect %v", n.NodeID, n.Rect, c.Rect)
		}
		r = r.Union(c.Rect)
		cnt, err := t.check(c, false, depthOfLeaves)
		if err != nil {
			return 0, err
		}
		total += cnt
	}
	if r != n.Rect {
		return 0, fmt.Errorf("rtree: node %d rect %v not tight (want %v)", n.NodeID, n.Rect, r)
	}
	// All leaves must be at the same depth.
	depths := map[int]bool{}
	var walk func(m *Node, d int)
	walk = func(m *Node, d int) {
		if m.Leaf {
			depths[d] = true
			return
		}
		for _, c := range m.Children {
			walk(c, d+1)
		}
	}
	walk(n, 0)
	if len(depths) > 1 {
		return 0, fmt.Errorf("rtree: node %d has leaves at multiple depths", n.NodeID)
	}
	return total, nil
}
