// Package rtree implements an in-memory R-tree over planar points: STR
// (Sort-Tile-Recursive) bulk loading, the node layout, and a persistent
// batch Editor (edit.go) that derives the next tree from a published one
// by copying only the root-to-leaf paths it changes — a Tree is never
// written once built, which is what lets the live index (internal/epoch)
// hand generations to readers without locks. It carries no search of its
// own.
//
// The IR-tree (package irtree) builds on this structure by annotating every
// node with an inverted file over its slots and runs every traversal; the
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

// Tree is an R-tree, constructed with BulkLoad (STR packing) or derived
// from another Tree by an Editor, and immutable afterwards, so concurrent
// use is safe.
type Tree struct {
	root       *Node
	size       int
	maxEntries int
	nextID     int // NodeID bound: ids ever allocated on this tree's lineage
	live       int // nodes reachable from root
}

// DefaultFanout is the node capacity used when 0 is passed for maxEntries.
// The paper's IR-tree experiments use page-sized nodes; 32 entries is a
// standard in-memory choice.
const DefaultFanout = 32

// MaxFanout is the largest node capacity: the IR-tree addresses a node's
// children or entries as the bits of one uint64.
const MaxFanout = 64

func (t *Tree) newNode(leaf bool) *Node {
	n := &Node{NodeID: t.nextID, Leaf: leaf, Rect: geo.EmptyRect()}
	t.nextID++
	return n
}

// BulkLoad builds a tree over entries using Sort-Tile-Recursive packing
// with the given node capacity (0 for DefaultFanout), clamped to
// [4, MaxFanout]. The entries slice is reordered in place.
func BulkLoad(entries []Entry, maxEntries int) *Tree {
	maxE := maxEntries
	if maxE <= 0 {
		maxE = DefaultFanout
	}
	maxE = min(max(maxE, 4), MaxFanout)
	t := &Tree{maxEntries: maxE, size: len(entries)}
	if len(entries) == 0 {
		t.root = t.newNode(true)
		t.live = t.nextID
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
	t.live = t.nextID // a bulk load keeps every node it allocates
	return t
}

// Root returns the root node. Callers must treat the structure as
// read-only.
func (t *Tree) Root() *Node { return t.root }

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return t.size }

// NumNodes returns the dense NodeID bound: the number of nodes ever
// allocated by the bulk load and the editors since. It exceeds LiveNodes
// by the nodes edits have replaced.
func (t *Tree) NumNodes() int { return t.nextID }

// LiveNodes returns the number of nodes reachable from the root.
func (t *Tree) LiveNodes() int { return t.live }

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

// CheckInvariants validates the structural invariants of the tree: tight
// rectangles, no overfull node, no empty node but an empty root, all
// leaves at one depth, and exact entry and node counts. It is intended for
// tests.
func (t *Tree) CheckInvariants() error {
	entries, nodes, _, err := t.check(t.root, true)
	if err != nil {
		return err
	}
	if entries != t.size {
		return fmt.Errorf("rtree: size %d but %d reachable entries", t.size, entries)
	}
	if nodes != t.live {
		return fmt.Errorf("rtree: %d live nodes recorded but %d reachable", t.live, nodes)
	}
	return nil
}

// check validates the subtree of n and returns its entry count, node
// count and height.
func (t *Tree) check(n *Node, isRoot bool) (entries, nodes, height int, err error) {
	if n.NodeID < 0 || n.NodeID >= t.nextID {
		return 0, 0, 0, fmt.Errorf("rtree: node id %d outside [0, %d)", n.NodeID, t.nextID)
	}
	if n.Leaf {
		if !isRoot && len(n.Entries) == 0 {
			return 0, 0, 0, fmt.Errorf("rtree: empty non-root leaf %d", n.NodeID)
		}
		if len(n.Entries) > t.maxEntries {
			return 0, 0, 0, fmt.Errorf("rtree: leaf %d overfull (%d > %d)", n.NodeID, len(n.Entries), t.maxEntries)
		}
		if r := tightRect(n); r != n.Rect {
			return 0, 0, 0, fmt.Errorf("rtree: leaf %d rect %v not tight (want %v)", n.NodeID, n.Rect, r)
		}
		return len(n.Entries), 1, 1, nil
	}
	if len(n.Children) == 0 {
		return 0, 0, 0, fmt.Errorf("rtree: internal node %d has no children", n.NodeID)
	}
	if len(n.Children) > t.maxEntries {
		return 0, 0, 0, fmt.Errorf("rtree: internal node %d overfull (%d > %d)", n.NodeID, len(n.Children), t.maxEntries)
	}
	if r := tightRect(n); r != n.Rect {
		return 0, 0, 0, fmt.Errorf("rtree: node %d rect %v not tight (want %v)", n.NodeID, n.Rect, r)
	}
	nodes = 1
	for i, c := range n.Children {
		ce, cn, ch, err := t.check(c, false)
		if err != nil {
			return 0, 0, 0, err
		}
		if i > 0 && ch != height {
			return 0, 0, 0, fmt.Errorf("rtree: node %d has leaves at multiple depths", n.NodeID)
		}
		entries, nodes, height = entries+ce, nodes+cn, ch
	}
	return entries, nodes, height + 1, nil
}
