package epoch

// Churn chaos proofs. Deterministic faults are injected at the three
// applier points — EpochApply (before every op a pass stages, so a pass
// dies with its tree, postings and tables part-edited), CompactRun (the
// re-pack), EpochSwap (just before the atomic publish) — across every
// fault kind and hit position, and the invariants checked are:
//
//  1. A crashed apply leaves the old generation intact: readers pinned
//     before the crash answer bit-identically after it, and the
//     generation compares deep-equal to a snapshot taken before it.
//  2. The applier's retry converges once the fault stops firing, every
//     generation it publishes on the way is sound on its own
//     (checkGeneration), and the converged state answers as the
//     replayer's from-scratch rebuild does (differential_test.go says
//     what that identity rests on) — a failed attempt leaves no residue
//     the retry could double-apply.
//  3. A reader pinned across N generation swaps keeps answering from
//     its pinned generation, bit-identically, for all five costs.
//
// Run with -race: the suite doubles as the torn-read detector.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
	"coskq/internal/testutil"
)

var chaosPoints = []fault.Point{fault.EpochApply, fault.CompactRun, fault.EpochSwap}

var chaosKinds = []fault.Kind{fault.KindLatency, fault.KindCancel, fault.KindBudget, fault.KindPanic}

// runChaosSchedule drives a fixed churn schedule through a store while
// one fault rule is armed, waiting for each batch to converge and
// checking the generation it lands in, then cross-checks the final state
// against the independent replayer. CompactFrac is set aggressively so
// CompactRun is actually reached every pass — after the same pass's path
// copying, which every EpochApply hit interrupts.
func runChaosSchedule(t *testing.T, rule fault.Rule) {
	t.Helper()
	testutil.CheckGoroutineLeaks(t)
	const seedObjects = 50
	ds := datagen.Generate(datagen.Config{
		Name: "chaos", NumObjects: seedObjects, VocabSize: 32, AvgKeywords: 3, Seed: 13,
	})
	st := New(core.NewEngine(ds, 0), Options{CompactFrac: 0.01, RetryDelay: 100 * time.Microsecond})
	defer st.Close()
	model := newReplayer(ds)

	disarm := fault.Arm(uint64(17), rule)
	defer disarm()

	stream := datagen.NewChurnStream(datagen.ChurnConfig{
		Seed: 13, Ops: 120, SeedKeys: seedObjects, Vocab: 32, PInsert: 0.35, PDelete: 0.35,
	})
	var batch []Op
	for {
		op, ok := stream.Next()
		if !ok {
			break
		}
		model.apply(op)
		batch = append(batch, toEpochOp(op))
		if len(batch) >= 8 {
			// Count-limited rules stop firing, so the retry loop converges.
			flushAndCheck(t, st, batch)
			batch = batch[:0]
		}
	}
	flushAndCheck(t, st, batch)

	g := st.Pin()
	defer g.Unpin()
	ref, refKeys := model.rebuild("chaos", g)
	if g.Eng.DS.Len() != ref.DS.Len() {
		t.Fatalf("converged store has %d objects, rebuild has %d", g.Eng.DS.Len(), ref.DS.Len())
	}
	for qi := 0; qi < 4; qi++ {
		loc := geo.Point{X: float64(qi) * 250, Y: float64(qi) * 200}
		words := []string{"w000000", fmt.Sprintf("w%06d", qi+1)}
		for _, cost := range allCosts {
			diffQuery(t, g, ref, refKeys, loc, words, cost, core.OwnerExact)
			diffQuery(t, g, ref, refKeys, loc, words, cost, core.OwnerAppro)
		}
	}
}

// TestChaosMatrix exercises every point × kind × hit position: rule
// {After: k-1, Every: 1, Count: 2} kills (or delays) the k-th and
// k+1-th hits of the point, covering both the first attempt and its
// retry.
func TestChaosMatrix(t *testing.T) {
	for _, point := range chaosPoints {
		for _, kind := range chaosKinds {
			for _, hit := range []uint64{1, 2, 5} {
				rule := fault.Rule{
					Point: point, Kind: kind,
					After: hit - 1, Every: 1, Count: 2,
					Latency: 200 * time.Microsecond,
				}
				name := fmt.Sprintf("%s/kind%d/hit%d", point, kind, hit)
				t.Run(name, func(t *testing.T) { runChaosSchedule(t, rule) })
			}
		}
	}
}

// TestCrashLeavesOldGenerationIntact pins generation 0, crashes the
// applier mid-apply repeatedly, and asserts the pinned generation's
// answer never changes while the store is failing — then converges
// correctly once the fault is exhausted, and keeps answering
// bit-identically, deep-equal to its first snapshot, across 200 later
// applies that each derive their tree from nodes generation 0 shares.
func TestCrashLeavesOldGenerationIntact(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	ds := datagen.Generate(datagen.Config{
		Name: "crash", NumObjects: 40, VocabSize: 24, AvgKeywords: 3, Seed: 21,
	})
	// A long retry delay keeps the store in its failing window while the
	// test inspects it; convergence still only needs three backoffs.
	st := New(core.NewEngine(ds, 0), Options{RetryDelay: 150 * time.Millisecond})
	defer st.Close()

	g0 := st.Pin()
	defer g0.Unpin()
	snap0 := snapshotGen(g0)
	loc := geo.Point{X: 500, Y: 500}
	words := []string{"w000000", "w000001"}
	before, berr := query(g0, loc, words, core.MaxSum, core.OwnerExact)

	// The first 3 apply attempts die at the swap point — with the next
	// generation fully staged, the worst place to crash.
	disarm := fault.Arm(3, fault.Rule{Point: fault.EpochSwap, Kind: fault.KindPanic, Every: 1, Count: 3})
	defer disarm()

	if _, err := st.ApplyBatch([]Op{{Kind: OpInsert, Words: []string{"w000000"}}}); err != nil {
		t.Fatal(err)
	}
	// While attempts are failing, the published generation must stay 0.
	testutil.WaitFor(t, 5*time.Second, "first apply failure", func() bool {
		return st.m.applyFailures.Value() >= 1
	})
	if got := st.Current(); got != 0 {
		t.Fatalf("generation swapped to %d during failing applies", got)
	}
	after, aerr := query(g0, loc, words, core.MaxSum, core.OwnerExact)
	if (berr == nil) != (aerr == nil) || (berr == nil && (before.Cost != after.Cost || len(before.Set) != len(after.Set))) {
		t.Fatalf("pinned generation answer changed under applier crashes: %v/%v vs %v/%v", before.Cost, berr, after.Cost, aerr)
	}

	waitIdle(t, st)
	if st.m.applyFailures.Value() < 3 {
		t.Fatalf("applyFailures = %d, want >= 3", st.m.applyFailures.Value())
	}
	g := st.Pin()
	defer g.Unpin()
	if g.Gen == 0 || g.Eng.DS.Len() != 41 {
		t.Fatalf("retry did not converge: gen %d, %d objects (want 41 — exactly-once apply)", g.Gen, g.Eng.DS.Len())
	}

	stream := datagen.NewChurnStream(datagen.ChurnConfig{Seed: 21, Ops: 200, SeedKeys: 41, Vocab: 24})
	for {
		op, ok := stream.Next()
		if !ok {
			break
		}
		flushChurn(t, st, []Op{toEpochOp(op)})
		waitIdle(t, st)
	}
	if st.Current() < 150 {
		t.Fatalf("only %d generations published, want a real history", st.Current())
	}
	after, aerr = query(g0, loc, words, core.MaxSum, core.OwnerExact)
	if (berr == nil) != (aerr == nil) || before.Cost != after.Cost || !slices.Equal(before.Set, after.Set) {
		t.Fatalf("pinned generation answer changed across %d applies: %v/%v vs %v/%v", st.Current(), before, berr, after, aerr)
	}
	if !reflect.DeepEqual(snapshotGen(g0), snap0) {
		t.Fatal("generation 0 no longer equals the snapshot taken when it was pinned")
	}
}

// TestFaultMidBatchLeavesPublishedGenerationIntact kills one apply pass
// after k of its 32 ops are staged — tree paths cloned and edited,
// posting lists copied, tables swapped about — and demands that the
// generation the pass was deriving from still compares deep-equal to its
// snapshot once the retry has published its successor, which must be
// sound and hold every op exactly once.
func TestFaultMidBatchLeavesPublishedGenerationIntact(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	ds := datagen.Generate(datagen.Config{
		Name: "midbatch", NumObjects: 120, VocabSize: 24, AvgKeywords: 3, Seed: 23,
	})
	// Never re-pack: every generation here shares nodes with its parent.
	st := New(core.NewEngine(ds, 4), Options{CompactFrac: -1, RetryDelay: 100 * time.Microsecond})
	defer st.Close()
	model := newReplayer(ds)
	stream := datagen.NewChurnStream(datagen.ChurnConfig{Seed: 23, Ops: 1 << 20, SeedKeys: 120, Vocab: 24})

	for _, k := range []uint64{0, 1, 7, 16, 31} {
		g := st.Pin()
		snap := snapshotGen(g)
		failures := st.m.applyFailures.Value()
		disarm := fault.Arm(k, fault.Rule{Point: fault.EpochApply, Kind: fault.KindPanic, After: k, Every: 1, Count: 1})
		batch := make([]Op, 32)
		for i := range batch {
			op, _ := stream.Next()
			model.apply(op)
			batch[i] = toEpochOp(op)
		}
		flushAndCheck(t, st, batch)
		disarm()
		if got := st.m.applyFailures.Value() - failures; got != 1 {
			t.Fatalf("k=%d: %d failed passes, want the one injected", k, got)
		}
		if st.Current() != g.Gen+1 {
			t.Fatalf("k=%d: generation %d -> %d, want one swap", k, g.Gen, st.Current())
		}
		if !reflect.DeepEqual(snapshotGen(g), snap) {
			t.Fatalf("k=%d: generation %d changed under a pass that faulted after %d ops", k, g.Gen, k)
		}
		checkGeneration(t, g)
		g.Unpin()
	}
	g := st.Pin()
	defer g.Unpin()
	if g.Eng.DS.Len() != len(model.live) {
		t.Fatalf("store holds %d objects, the replayer %d", g.Eng.DS.Len(), len(model.live))
	}
	for id, want := range model.live {
		if g.Keys[id] != want.key || g.Eng.DS.Objects[id].Loc != want.loc {
			t.Fatalf("slot %d holds key %d at %v, the replayer key %d at %v", id, g.Keys[id], g.Eng.DS.Objects[id].Loc, want.key, want.loc)
		}
	}
}

// treeSnap is a deep copy of one tree node, keyed by its identity: an
// applier that replaced a node instead of sharing it changes Addr.
type treeSnap struct {
	Addr     uintptr
	Rect     geo.Rect
	Entries  []irtree.Entry
	Children []treeSnap
}

func snapshotTree(n *irtree.Node) treeSnap {
	s := treeSnap{Addr: reflect.ValueOf(n).Pointer(), Rect: n.Rect, Entries: slices.Clone(n.Entries)}
	for _, c := range n.Children {
		s.Children = append(s.Children, snapshotTree(c))
	}
	return s
}

// genSnap is a deep copy of everything a generation holds that an
// applier deriving a later one could reach: objects with their keyword
// sets, keys, every tree node, every posting list, and the vocabulary
// with which of its words are known. (Keyword unions are not exported;
// generationErr ties them to the objects, which are.)
type genSnap struct {
	Objects  []dataset.Object
	Keys     []uint64
	Tree     treeSnap
	Postings [][]dataset.ObjectID
	Words    []string
	Known    []bool
}

func snapshotGen(g *Generation) genSnap {
	ds := g.Eng.DS
	s := genSnap{Keys: slices.Clone(g.Keys), Tree: snapshotTree(g.Eng.Tree.Root()), Words: slices.Clone(ds.Vocab.Words())}
	for _, o := range ds.Objects {
		o.Keywords = slices.Clone(o.Keywords)
		s.Objects = append(s.Objects, o)
	}
	for kw, w := range s.Words {
		s.Postings = append(s.Postings, slices.Clone(g.Eng.Inv.Postings(kwds.ID(kw))))
		_, known := ds.Vocab.Lookup(w)
		s.Known = append(s.Known, known)
	}
	return s
}

// TestReaderPinnedAcrossSwaps pins one generation, then churns through
// N swaps; the pinned reader's answers stay bit-identical to the
// snapshot it holds, for every cost.
func TestReaderPinnedAcrossSwaps(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	ds := datagen.Generate(datagen.Config{
		Name: "pinned", NumObjects: 50, VocabSize: 24, AvgKeywords: 3, Seed: 31,
	})
	st := New(core.NewEngine(ds, 0), Options{CompactFrac: 0.05})
	defer st.Close()

	g0 := st.Pin()
	defer g0.Unpin()
	loc := geo.Point{X: 300, Y: 700}
	words := []string{"w000000", "w000002"}
	type snap struct {
		cost float64
		n    int
		err  bool
	}
	baseline := map[core.CostKind]snap{}
	for _, cost := range allCosts {
		res, err := query(g0, loc, words, cost, core.OwnerExact)
		baseline[cost] = snap{cost: res.Cost, n: len(res.Set), err: err != nil}
	}

	stream := datagen.NewChurnStream(datagen.ChurnConfig{
		Seed: 31, Ops: 60, SeedKeys: 50, Vocab: 24,
	})
	swaps := 0
	for {
		op, ok := stream.Next()
		if !ok {
			break
		}
		pre := st.Current()
		flushChurn(t, st, []Op{toEpochOp(op)})
		waitIdle(t, st)
		if st.Current() != pre {
			swaps++
		}
		for _, cost := range allCosts {
			res, err := query(g0, loc, words, cost, core.OwnerExact)
			want := baseline[cost]
			if (err != nil) != want.err || res.Cost != want.cost || len(res.Set) != want.n {
				t.Fatalf("after %d swaps, pinned reader's %v answer drifted: cost %v (want %v), %d members (want %d), err %v",
					swaps, cost, res.Cost, want.cost, len(res.Set), want.n, err)
			}
		}
	}
	if swaps < 30 {
		t.Fatalf("only %d swaps observed, want a real churn history", swaps)
	}
	if g0.Pins() != 1 {
		t.Fatalf("pins = %d, want 1", g0.Pins())
	}
}
