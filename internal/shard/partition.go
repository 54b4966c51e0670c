package shard

import (
	"fmt"
	"math"
	"sort"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/rtree"
)

// Shard is one partition of a dataset: a standalone dataset with dense
// local object ids (so an engine can be built over it) plus the mapping
// back to the ids of the original dataset. The shard shares the original
// vocabulary, so keyword ids stay comparable in-process.
type Shard struct {
	DS        *dataset.Dataset
	GlobalIDs []dataset.ObjectID // local id -> original id
}

// Partitioner splits a dataset into n spatial shards. Partitions are
// disjoint, exhaustive, and deterministic for a given (dataset, n);
// shards may be empty when the data is skewed relative to the strategy.
type Partitioner interface {
	Name() string
	Partition(ds *dataset.Dataset, n int) ([]Shard, error)
}

// assemble groups objects by their assigned shard, preserving the
// original object order inside each shard so partitioning is
// deterministic and local ids increase with global ids.
func assemble(ds *dataset.Dataset, n int, shardOf []int) []Shard {
	objs := make([][]dataset.Object, n)
	gids := make([][]dataset.ObjectID, n)
	for i := range ds.Objects {
		s := shardOf[i]
		o := ds.Objects[i]
		o.ID = dataset.ObjectID(len(objs[s]))
		objs[s] = append(objs[s], o)
		gids[s] = append(gids[s], ds.Objects[i].ID)
	}
	out := make([]Shard, n)
	for s := 0; s < n; s++ {
		out[s] = Shard{
			DS: &dataset.Dataset{
				Name:    fmt.Sprintf("%s/shard-%d", ds.Name, s),
				Objects: objs[s],
				Vocab:   ds.Vocab,
			},
			GlobalIDs: gids[s],
		}
	}
	return out
}

// GridPartitioner splits the dataset MBR into a near-square grid of
// cells and maps contiguous row-major cell ranges onto exactly n shards.
type GridPartitioner struct{}

// Grid returns the uniform-grid partitioner.
func Grid() Partitioner { return GridPartitioner{} }

// Name implements Partitioner.
func (GridPartitioner) Name() string { return "grid" }

// Partition implements Partitioner.
func (GridPartitioner) Partition(ds *dataset.Dataset, n int) ([]Shard, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: grid: need at least 1 shard, got %d", n)
	}
	mbr := ds.MBR()
	gx := int(math.Ceil(math.Sqrt(float64(n))))
	if gx < 1 {
		gx = 1
	}
	gy := (n + gx - 1) / gx
	cells := gx * gy
	w, h := mbr.Width(), mbr.Height()
	cellAt := func(p geo.Point) int {
		ix, iy := 0, 0
		if w > 0 {
			ix = int((p.X - mbr.MinX) / w * float64(gx))
		}
		if h > 0 {
			iy = int((p.Y - mbr.MinY) / h * float64(gy))
		}
		if ix >= gx {
			ix = gx - 1
		}
		if iy >= gy {
			iy = gy - 1
		}
		return iy*gx + ix
	}
	shardOf := make([]int, ds.Len())
	for i := range ds.Objects {
		// Map cells onto shards by contiguous row-major ranges so the
		// assignment is exactly n-way for any (gx, gy).
		shardOf[i] = cellAt(ds.Objects[i].Loc) * n / cells
	}
	return assemble(ds, n, shardOf), nil
}

// SubtreePartitioner bulk-loads an R-tree over the dataset, walks down
// from the root until at least n subtrees are exposed, and bin-packs the
// subtrees (largest first) onto the least-loaded shard. Shards inherit
// the tree's spatial clustering, so their MBRs overlap far less than
// grid cells on skewed data.
type SubtreePartitioner struct {
	// Fanout is the R-tree node capacity used for the partitioning tree
	// (0 for the rtree default).
	Fanout int
}

// Subtree returns the R-tree-top-subtree partitioner with the default
// fanout.
func Subtree() Partitioner { return SubtreePartitioner{} }

// Name implements Partitioner.
func (SubtreePartitioner) Name() string { return "subtree" }

func subtreeSize(n *rtree.Node) int {
	if n.Leaf {
		return len(n.Entries)
	}
	total := 0
	for _, c := range n.Children {
		total += subtreeSize(c)
	}
	return total
}

func subtreeEntries(n *rtree.Node, out *[]rtree.Entry) {
	if n.Leaf {
		*out = append(*out, n.Entries...)
		return
	}
	for _, c := range n.Children {
		subtreeEntries(c, out)
	}
}

// Partition implements Partitioner.
func (p SubtreePartitioner) Partition(ds *dataset.Dataset, n int) ([]Shard, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: subtree: need at least 1 shard, got %d", n)
	}
	entries := make([]rtree.Entry, ds.Len())
	for i := range ds.Objects {
		entries[i] = rtree.Entry{P: ds.Objects[i].Loc, ID: uint32(ds.Objects[i].ID)}
	}
	rt := rtree.BulkLoad(entries, p.Fanout)

	// Expand the frontier from the root: repeatedly replace the largest
	// internal node by its children until at least n subtrees are exposed
	// (or only leaves remain).
	frontier := []*rtree.Node{rt.Root()}
	for len(frontier) < n {
		best, bestSize := -1, -1
		for i, nd := range frontier {
			if nd.Leaf {
				continue
			}
			if sz := subtreeSize(nd); sz > bestSize {
				best, bestSize = i, sz
			}
		}
		if best < 0 {
			break // all leaves: fewer subtrees than shards, some stay empty
		}
		expanded := frontier[best]
		frontier = append(frontier[:best], frontier[best+1:]...)
		frontier = append(frontier, expanded.Children...)
	}

	// Bin-pack subtrees onto shards: largest first onto the least-loaded
	// shard, ties by shard ordinal. Sorting is stabilized by NodeID so
	// the assignment is deterministic.
	sort.SliceStable(frontier, func(i, j int) bool {
		si, sj := subtreeSize(frontier[i]), subtreeSize(frontier[j])
		if si != sj {
			return si > sj
		}
		return frontier[i].NodeID < frontier[j].NodeID
	})
	load := make([]int, n)
	shardOf := make([]int, ds.Len())
	for _, nd := range frontier {
		target := 0
		for s := 1; s < n; s++ {
			if load[s] < load[target] {
				target = s
			}
		}
		var sub []rtree.Entry
		subtreeEntries(nd, &sub)
		for _, e := range sub {
			shardOf[e.ID] = target
		}
		load[target] += len(sub)
	}
	return assemble(ds, n, shardOf), nil
}

// PartitionerByName maps the CLI spelling to a partitioner.
func PartitionerByName(name string) (Partitioner, bool) {
	switch name {
	case "grid", "":
		return Grid(), true
	case "subtree":
		return Subtree(), true
	}
	return nil, false
}

// BuildBackends builds each shard's posting lists into an in-process
// backend.
func BuildBackends(shards []Shard) []Backend {
	out := make([]Backend, len(shards))
	for i, sh := range shards {
		out[i] = NewEngineBackend(sh.DS.Name, sh)
	}
	return out
}

// NewLocalRouter partitions ds into n shards with the given strategy and
// returns a ready in-process router over the per-shard backends. The
// router's Vocab is the dataset's, so core.Query keyword sets pass
// straight through Solve/SolveCtx. The unnamed int was the shards'
// IR-tree fanout; it stays only because bench/ladder.go still passes it.
func NewLocalRouter(ds *dataset.Dataset, n int, part Partitioner, _ int) (*Router, error) {
	shards, err := part.Partition(ds, n)
	if err != nil {
		return nil, err
	}
	return &Router{Backends: BuildBackends(shards), Vocab: ds.Vocab}, nil
}
