package irtree

import (
	"cmp"
	"math"
	"slices"

	"coskq/internal/geo"
)

func newNode(leaf bool) *Node { return &Node{Leaf: leaf, Rect: geo.EmptyRect()} }

// Pack returns the STR (Sort-Tile-Recursive) packing of entries with the
// given node capacity (0 for DefaultFanout), clamped to [4, MaxFanout].
// The entries slice is reordered in place. The tree has no dataset and no
// inverted file, so its walks find nothing and it cannot be edited: it is
// for callers that cut a tree by shape, like the shard partitioner. Build
// packs and annotates.
func Pack(entries []Entry, fanout int) *Tree {
	maxE := fanout
	if maxE <= 0 {
		maxE = DefaultFanout
	}
	maxE = min(max(maxE, 4), MaxFanout)
	t := &Tree{maxEntries: maxE, size: len(entries)}
	node := func(leaf bool) *Node {
		t.live++
		return newNode(leaf)
	}
	if len(entries) == 0 {
		t.root = node(true)
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
		end := min(start+perSlab, len(entries))
		slab := entries[start:end]
		slices.SortFunc(slab, func(a, b Entry) int { return cmp.Compare(a.P.Y, b.P.Y) })
		for ls := 0; ls < len(slab); ls += maxE {
			n := node(true)
			n.Entries = append(n.Entries, slab[ls:min(ls+maxE, len(slab))]...)
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
			end := min(start+perSlab, len(level))
			slab := level[start:end]
			slices.SortFunc(slab, func(a, b *Node) int { return cmp.Compare(a.Rect.Center().Y, b.Rect.Center().Y) })
			for ls := 0; ls < len(slab); ls += maxE {
				n := node(false)
				n.Children = append(n.Children, slab[ls:min(ls+maxE, len(slab))]...)
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
