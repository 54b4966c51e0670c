package rtree

import (
	"cmp"
	"slices"

	"coskq/internal/geo"
)

// Editor derives a new Tree from a base tree by path copying. Every node
// it writes is a clone it made itself under a fresh NodeID; nodes of the
// base tree are only ever read, so the base — and every tree that shares
// subtrees with it — stays valid and unchanged, and may be read
// concurrently while the editor runs. The derived tree shares all
// untouched subtrees with its base. An abandoned editor is garbage: it
// leaves nothing behind in the base.
//
// NodeIDs of the derived tree continue the base's numbering, so data
// attached by NodeID (the IR-tree's inverted files) stays valid for shared
// nodes and only the clones — IDs at or above the base's NumNodes — need
// fresh data.
type Editor struct {
	t     *Tree   // the tree under construction
	first int     // NodeIDs >= first are this editor's own and may be written
	path  []int   // scratch: child indexes from the root to a leaf
	nodes []*Node // scratch: the owned nodes along path
}

// Edit starts an editor over t.
func (t *Tree) Edit() *Editor {
	nt := *t
	return &Editor{t: &nt, first: t.nextID}
}

// Tree returns the derived tree. The editor must not be used afterwards.
func (e *Editor) Tree() *Tree { return e.t }

// Cloned returns the number of nodes the editor has created so far.
func (e *Editor) Cloned() int { return e.t.nextID - e.first }

// Insert adds ent: least-enlargement descent, and a split of every node
// the insertion overfills.
func (e *Editor) Insert(ent Entry) {
	t := e.t
	root := e.ownRoot()
	if sib := e.insert(root, ent); sib != nil {
		nr := t.newNode(false)
		nr.Children = append(make([]*Node, 0, t.maxEntries+1), root, sib)
		nr.Rect = root.Rect.Union(sib.Rect)
		t.root = nr
		t.live++
	}
	t.size++
}

// Delete removes the entry with the given point and id, tightens the
// rectangles above it and drops nodes it leaves empty. It reports whether
// the entry was found.
func (e *Editor) Delete(p geo.Point, id uint32) bool {
	nodes, at := e.descend(p, id)
	if at < 0 {
		return false
	}
	t := e.t
	leaf := nodes[len(nodes)-1]
	leaf.Entries = slices.Delete(leaf.Entries, at, at+1)
	t.size--
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		if i > 0 && len(n.Entries) == 0 && len(n.Children) == 0 {
			parent := nodes[i-1]
			parent.Children = slices.Delete(parent.Children, e.path[i-1], e.path[i-1]+1)
			t.live--
			continue
		}
		n.Rect = tightRect(n)
	}
	// A root left with one child hands the root to it; one left with none
	// is the empty tree.
	for !t.root.Leaf && len(t.root.Children) == 1 {
		t.root = t.root.Children[0]
		t.live--
	}
	if !t.root.Leaf && len(t.root.Children) == 0 {
		t.root = t.newNode(true)
	}
	return true
}

// ReID replaces the id of the entry with the given point and id, cloning
// the path to it (so newID == id just marks that path as changed). It
// reports whether the entry was found.
func (e *Editor) ReID(p geo.Point, id, newID uint32) bool {
	nodes, at := e.descend(p, id)
	if at < 0 {
		return false
	}
	nodes[len(nodes)-1].Entries[at].ID = newID
	return true
}

func (e *Editor) owned(n *Node) bool { return n.NodeID >= e.first }

// clone returns a writable copy of n under a fresh NodeID, with room for
// the one entry over capacity that precedes a split.
func (e *Editor) clone(n *Node) *Node {
	c := e.t.newNode(n.Leaf)
	c.Rect = n.Rect
	if n.Leaf {
		c.Entries = append(make([]Entry, 0, e.t.maxEntries+1), n.Entries...)
	} else {
		c.Children = append(make([]*Node, 0, e.t.maxEntries+1), n.Children...)
	}
	return c
}

func (e *Editor) ownRoot() *Node {
	if !e.owned(e.t.root) {
		e.t.root = e.clone(e.t.root)
	}
	return e.t.root
}

// ownChild makes child i of the owned node n writable.
func (e *Editor) ownChild(n *Node, i int) *Node {
	c := n.Children[i]
	if !e.owned(c) {
		c = e.clone(c)
		n.Children[i] = c
	}
	return c
}

// insert adds ent below the owned node n and returns the sibling split
// off n when that overfilled it.
func (e *Editor) insert(n *Node, ent Entry) *Node {
	n.Rect = n.Rect.ExtendPoint(ent.P)
	if n.Leaf {
		n.Entries = append(n.Entries, ent)
	} else if sib := e.insert(e.ownChild(n, chooseSubtree(n, ent.P)), ent); sib != nil {
		n.Children = append(n.Children, sib)
	}
	if len(n.Entries) <= e.t.maxEntries && len(n.Children) <= e.t.maxEntries {
		return nil
	}
	return e.split(n)
}

// chooseSubtree picks the child of n whose rectangle grows least to take
// p: by area, then by perimeter (point data makes zero-area rectangles
// common), then the smaller rectangle.
func chooseSubtree(n *Node, p geo.Point) int {
	best := 0
	var bestArea, bestMargin, bestSize float64
	for i, c := range n.Children {
		grown := c.Rect.ExtendPoint(p)
		area := grown.Width()*grown.Height() - c.Rect.Width()*c.Rect.Height()
		margin := grown.Width() + grown.Height() - c.Rect.Width() - c.Rect.Height()
		size := c.Rect.Width() * c.Rect.Height()
		if i == 0 || area < bestArea ||
			area == bestArea && (margin < bestMargin || margin == bestMargin && size < bestSize) {
			best, bestArea, bestMargin, bestSize = i, area, margin, size
		}
	}
	return best
}

// split halves the overfull owned node n along the longer side of its
// rectangle: n keeps the lower half, the returned sibling takes the upper.
func (e *Editor) split(n *Node) *Node {
	t := e.t
	byX := n.Rect.Width() >= n.Rect.Height()
	sib := t.newNode(n.Leaf)
	t.live++
	if n.Leaf {
		slices.SortFunc(n.Entries, func(a, b Entry) int {
			if byX {
				return cmp.Compare(a.P.X, b.P.X)
			}
			return cmp.Compare(a.P.Y, b.P.Y)
		})
		half := len(n.Entries) / 2
		sib.Entries = append(make([]Entry, 0, t.maxEntries+1), n.Entries[half:]...)
		n.Entries = n.Entries[:half]
	} else {
		slices.SortFunc(n.Children, func(a, b *Node) int {
			if byX {
				return cmp.Compare(a.Rect.Center().X, b.Rect.Center().X)
			}
			return cmp.Compare(a.Rect.Center().Y, b.Rect.Center().Y)
		})
		half := len(n.Children) / 2
		sib.Children = append(make([]*Node, 0, t.maxEntries+1), n.Children[half:]...)
		clear(n.Children[half:])
		n.Children = n.Children[:half]
	}
	n.Rect, sib.Rect = tightRect(n), tightRect(sib)
	return sib
}

func tightRect(n *Node) geo.Rect {
	r := geo.EmptyRect()
	for _, ent := range n.Entries {
		r = r.ExtendPoint(ent.P)
	}
	for _, c := range n.Children {
		r = r.Union(c.Rect)
	}
	return r
}

// descend finds the entry (p, id) and returns the nodes from the root to
// its leaf, every one of them owned, with the entry's index in the leaf;
// e.path holds the child indexes taken. Nothing is cloned when the entry
// does not exist (index -1).
func (e *Editor) descend(p geo.Point, id uint32) ([]*Node, int) {
	var at int
	e.path, at = find(e.t.root, p, id, e.path[:0])
	if at < 0 {
		return nil, -1
	}
	e.nodes = append(e.nodes[:0], e.ownRoot())
	for _, i := range e.path {
		e.nodes = append(e.nodes, e.ownChild(e.nodes[len(e.nodes)-1], i))
	}
	return e.nodes, at
}

// find searches the subtree of n for the entry (p, id), read-only. It
// returns path extended by the child indexes leading to the leaf and the
// entry's index there, or -1. Overlapping rectangles make this a
// backtracking search.
func find(n *Node, p geo.Point, id uint32, path []int) ([]int, int) {
	if n.Leaf {
		for i, ent := range n.Entries {
			if ent.ID == id && ent.P == p {
				return path, i
			}
		}
		return path, -1
	}
	for i, c := range n.Children {
		if !c.Rect.ContainsPoint(p) {
			continue
		}
		if sub, at := find(c, p, id, append(path, i)); at >= 0 {
			return sub, at
		}
	}
	return path, -1
}
