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
)

// diskVisits counts the nodes of n's subtree a range query over disk
// descends into: the classic measure of how well an R-tree's rectangles
// separate space.
func diskVisits(n *irtree.Node, disk geo.Circle) int {
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
// re-packs. After 0.2·n ops through the editor — most of the way to the
// 0.25 re-pack default — the edited tree is compared with a freshly
// packed one over the same objects on a seeded exact query set: mean
// NodesExpanded, the search effort the engine budgets, must stay ≤ 1.15×.
// If it does not, lower the re-pack default rather than add a knob. The
// node visits of seeded range queries are logged beside it, unbounded:
// that is where a tree that has drifted from packed shows first (STR
// leaves are full, so nearly every early insert splits one), and the
// figure DESIGN.md §16.3 quotes.
func TestTreeHealthUnderChurn(t *testing.T) {
	const n, churn = 5000, 1000 // 0.2·n
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
	packed := &core.Engine{DS: g.Eng.DS, Tree: irtree.Build(g.Eng.DS, g.Eng.Tree.Fanout()), Inv: g.Eng.Inv, Config: g.Eng.Config}

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
}
