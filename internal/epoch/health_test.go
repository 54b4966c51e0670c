package epoch

import (
	"fmt"
	"math/rand"
	"testing"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/geo"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
	"coskq/internal/rtree"
)

// diskVisits counts the nodes of n's subtree a range query over disk
// descends into: the classic measure of how well an R-tree's rectangles
// separate space.
func diskVisits(n *rtree.Node, disk geo.Circle) int {
	if !disk.IntersectsRect(n.Rect) {
		return 0
	}
	visits := 1
	for _, c := range n.Children {
		visits += diskVisits(c, disk)
	}
	return visits
}

// TestTreeHealthUnderChurn bounds what path copying costs reads between
// re-packs. After 0.04·n ops through the editor — just short of the 0.05
// re-pack default — the edited tree is compared with a freshly packed
// one over the same objects on a seeded exact query set (mean
// NodesExpanded, the search effort the engine budgets: ≤ 1.15×) and on
// the node visits of seeded range queries, which is where a tree that
// has drifted from packed shows first (≤ 1.25×; STR leaves are full, so
// nearly every early insert splits one). If a bound fails, lower the
// re-pack default rather than add a knob.
func TestTreeHealthUnderChurn(t *testing.T) {
	const n, churn = 5000, 200 // 0.04·n
	ds := datagen.Generate(datagen.Config{Name: "health", NumObjects: n, VocabSize: 128, AvgKeywords: 4, Seed: 7})
	st := New(core.NewEngine(ds, 0), Options{CompactFrac: -1})
	defer st.Close()
	stream := datagen.NewChurnStream(datagen.ChurnConfig{Seed: 7, Ops: churn, SeedKeys: n, Vocab: 128})
	batch := make([]Op, 0, 32)
	for {
		op, ok := stream.Next()
		if ok {
			batch = append(batch, toEpochOp(op))
		}
		if len(batch) == cap(batch) || !ok {
			flushChurn(t, st, batch)
			waitIdle(t, st)
			batch = batch[:0]
		}
		if !ok {
			break
		}
	}
	g := st.Pin()
	defer g.Unpin()
	if got := st.m.repacks.Value(); got != 0 {
		t.Fatalf("%d re-packs: the tree under test is not the edited one", got)
	}
	packed := core.NewEngineLike(g.Eng, g.Eng.DS, irtree.Build(g.Eng.DS, g.Eng.Tree.Fanout()), g.Eng.Inv)

	rng := rand.New(rand.NewSource(8))
	var editedNodes, packedNodes, editedVisits, packedVisits float64
	for i := 0; i < 200; i++ {
		loc := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		var q kwds.Set
		for len(q) < 4 {
			if id, ok := g.Eng.DS.Vocab.Lookup(fmt.Sprintf("w%06d", rng.Intn(40))); ok {
				q = q.Union(kwds.NewSet(id))
			}
		}
		e, eerr := g.Eng.Solve(core.Query{Loc: loc, Keywords: q}, core.MaxSum, core.OwnerExact)
		p, perr := packed.Solve(core.Query{Loc: loc, Keywords: q}, core.MaxSum, core.OwnerExact)
		if eerr != nil || perr != nil || e.Cost != p.Cost {
			t.Fatalf("query %d: edited %v (%v), packed %v (%v)", i, e.Cost, eerr, p.Cost, perr)
		}
		editedNodes += float64(e.Stats.NodesExpanded)
		packedNodes += float64(p.Stats.NodesExpanded)
		disk := geo.Circle{C: loc, R: 20 + rng.Float64()*60}
		editedVisits += float64(diskVisits(g.Eng.Tree.Root(), disk))
		packedVisits += float64(diskVisits(packed.Tree.Root(), disk))
	}
	t.Logf("after %d ops on %d objects: NodesExpanded edited/packed = %.3f, range-query node visits = %.3f (nodes %d vs %d)",
		churn, n, editedNodes/packedNodes, editedVisits/packedVisits, g.Eng.Tree.Nodes(), packed.Tree.Nodes())
	if r := editedNodes / packedNodes; r > 1.15 {
		t.Errorf("mean NodesExpanded on the edited tree is %.3f× the packed tree's, want ≤ 1.15×", r)
	}
	if r := editedVisits / packedVisits; r > 1.25 {
		t.Errorf("range queries visit %.3f× the packed tree's nodes on the edited tree, want ≤ 1.25×", r)
	}
}
