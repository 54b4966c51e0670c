package epoch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/invindex"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
	"coskq/internal/testutil"
)

// seedStore builds a store over a small deterministic dataset.
func seedStore(t testing.TB, n int, opts Options) *Store {
	t.Helper()
	ds := datagen.Generate(datagen.Config{
		Name: "live", NumObjects: n, VocabSize: 40, AvgKeywords: 3, Seed: 42,
	})
	st := New(core.NewEngine(ds, 0), opts)
	t.Cleanup(st.Close)
	return st
}

func waitIdle(t testing.TB, st *Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := st.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v (backlog %d)", err, st.Backlog())
	}
}

// query resolves words against g's vocabulary and solves. Missing words
// yield an infeasible query, which callers treat as a valid outcome.
func query(g *Generation, loc geo.Point, words []string, cost core.CostKind, m core.Method) (core.Result, error) {
	var set kwds.Set
	for _, w := range words {
		if id, ok := g.Eng.DS.Vocab.Lookup(w); ok {
			set = set.Union(kwds.NewSet(id))
		} else {
			return core.Result{}, core.ErrInfeasible
		}
	}
	return g.Eng.Solve(core.Query{Loc: loc, Keywords: set}, cost, m)
}

func TestSeedGenerationServesWithoutRebuild(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	st := seedStore(t, 50, Options{})
	g := st.Pin()
	defer g.Unpin()
	if g.Gen != 0 {
		t.Fatalf("seed generation = %d, want 0", g.Gen)
	}
	if g.Eng.DS.Len() != 50 || len(g.Keys) != 50 {
		t.Fatalf("seed gen has %d objects, %d keys", g.Eng.DS.Len(), len(g.Keys))
	}
	for i, k := range g.Keys {
		if k != uint64(i) {
			t.Fatalf("seed key[%d] = %d", i, k)
		}
	}
}

func TestInsertDeleteEditVisibleAfterSwap(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	st := seedStore(t, 20, Options{})
	loc := geo.Point{X: 1, Y: 2}
	sts, err := st.ApplyBatch([]Op{
		{Kind: OpInsert, Loc: loc, Words: []string{"zebra", "yak"}},
		{Kind: OpDelete, Key: 3},
		{Kind: OpEdit, Key: 5, Loc: loc, Words: []string{"zebra"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sts {
		if s.Err != "" {
			t.Fatalf("op %d rejected: %s", i, s.Err)
		}
	}
	if sts[0].Key != 20 {
		t.Fatalf("assigned key = %d, want 20 (high-watermark)", sts[0].Key)
	}
	waitIdle(t, st)
	g := st.Pin()
	defer g.Unpin()
	if g.Gen == 0 {
		t.Fatal("no swap happened")
	}
	// 20 seed objects − 1 delete + 1 insert.
	if g.Eng.DS.Len() != 20 {
		t.Fatalf("live objects = %d, want 20", g.Eng.DS.Len())
	}
	keys := map[uint64]bool{}
	for _, k := range g.Keys {
		keys[k] = true
	}
	if keys[3] {
		t.Fatal("deleted key 3 still live")
	}
	if !keys[20] {
		t.Fatal("inserted key 20 not live")
	}
	// The inserted object is findable under its keyword.
	res, err := query(g, loc, []string{"zebra"}, core.MaxSum, core.OwnerExact)
	if err != nil {
		t.Fatalf("query for inserted keyword: %v", err)
	}
	found := false
	for _, id := range res.Set {
		if g.Key(id) == 20 || g.Key(id) == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("answer %v does not contain the churned objects", res.Set)
	}
}

func TestValidationVocabulary(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	st := seedStore(t, 10, Options{})
	k := uint64(999)
	sts, err := st.ApplyBatch([]Op{
		{Kind: OpInsert},                                             // no keywords
		{Kind: OpDelete, Key: 999},                                   // unknown
		{Kind: OpEdit, Key: 0},                                       // no keywords
		{Kind: OpEdit, Key: 999, Words: []string{"w"}},               // unknown
		{Kind: OpInsert, Key: 0, HasKey: true, Words: []string{"w"}}, // exists
		{Kind: "frobnicate"},                                         // bad op
		{Kind: OpInsert, Key: k, HasKey: true, Words: []string{"w"}}, // ok
		{Kind: OpInsert, Key: k, HasKey: true, Words: []string{"w"}}, // dup within batch
		{Kind: OpDelete, Key: k},                                     // delete the in-batch insert
		{Kind: OpEdit, Key: k, Words: []string{"w"}},                 // edit after in-batch delete
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		errEmptyKeywords, errUnknownKey, errEmptyKeywords, errUnknownKey,
		errKeyExists, errBadOp, "", errKeyExists, "", errUnknownKey,
	}
	for i, w := range want {
		if sts[i].Err != w {
			t.Fatalf("op %d: err %q, want %q", i, sts[i].Err, w)
		}
	}
	waitIdle(t, st)
	// Explicit keys bump the high-watermark past them.
	sts, err = st.ApplyBatch([]Op{{Kind: OpInsert, Words: []string{"w"}}})
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].Key != 1000 {
		t.Fatalf("assigned key = %d, want 1000", sts[0].Key)
	}
}

func TestBacklogBound(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	st := seedStore(t, 10, Options{MaxBacklog: 4})
	ops := make([]Op, 5)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, Words: []string{"w"}}
	}
	if _, err := st.ApplyBatch(ops); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("err = %v, want ErrBacklogFull", err)
	}
	if st.m.backlogRejects.Value() == 0 {
		t.Fatal("backlog reject not counted")
	}
	// A batch within the bound is accepted, and reads never block on the
	// backlog.
	if _, err := st.ApplyBatch(ops[:2]); err != nil {
		t.Fatal(err)
	}
	g := st.Pin()
	g.Unpin()
	waitIdle(t, st)
}

func TestSeqReplay(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	st := seedStore(t, 10, Options{})
	ops := []Op{{Kind: OpInsert, Words: []string{"w"}}}
	first, replayed, err := st.ApplyBatchSeq("tok-1", ops)
	if err != nil || replayed {
		t.Fatalf("first apply: replayed=%v err=%v", replayed, err)
	}
	again, replayed, err := st.ApplyBatchSeq("tok-1", ops)
	if err != nil || !replayed {
		t.Fatalf("retry: replayed=%v err=%v", replayed, err)
	}
	if len(again) != 1 || again[0].Key != first[0].Key {
		t.Fatalf("replay statuses %v != original %v", again, first)
	}
	waitIdle(t, st)
	// The batch applied once: exactly one new object.
	g := st.Pin()
	defer g.Unpin()
	if g.Eng.DS.Len() != 11 {
		t.Fatalf("live objects = %d, want 11 (single application)", g.Eng.DS.Len())
	}
	if st.m.seqReplays.Value() != 1 {
		t.Fatalf("seqReplays = %d, want 1", st.m.seqReplays.Value())
	}
}

func TestSeqRejectedBatchNotRecorded(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	st := seedStore(t, 10, Options{MaxBacklog: 2})
	ops := make([]Op, 3)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, Words: []string{"w"}}
	}
	if _, _, err := st.ApplyBatchSeq("tok-r", ops); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("err = %v, want ErrBacklogFull", err)
	}
	// The retry with the same token must re-attempt, not replay the
	// rejection.
	sts, replayed, err := st.ApplyBatchSeq("tok-r", ops[:1])
	if err != nil || replayed {
		t.Fatalf("retry after reject: replayed=%v err=%v", replayed, err)
	}
	if sts[0].Err != "" {
		t.Fatalf("retry rejected: %s", sts[0].Err)
	}
	waitIdle(t, st)
}

func TestSeqLRUBounded(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	st := seedStore(t, 10, Options{seqCap: 2})
	for _, tok := range []string{"a", "b", "c"} {
		if _, _, err := st.ApplyBatchSeq(tok, []Op{{Kind: OpInsert, Words: []string{"w"}}}); err != nil {
			t.Fatal(err)
		}
	}
	// "a" was evicted: its retry re-applies (fresh key), no replay flag.
	_, replayed, err := st.ApplyBatchSeq("a", []Op{{Kind: OpInsert, Words: []string{"w"}}})
	if err != nil || replayed {
		t.Fatalf("evicted token: replayed=%v err=%v", replayed, err)
	}
	_, replayed, _ = st.ApplyBatchSeq("c", nil)
	if !replayed {
		t.Fatal("recent token evicted too early")
	}
	waitIdle(t, st)
}

func TestPinUnpinGauge(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	st := seedStore(t, 10, Options{})
	g1 := st.Pin()
	g2 := st.Pin()
	if g1 != g2 {
		t.Fatal("two pins of one quiescent store returned different generations")
	}
	if got := g1.Pins(); got != 2 {
		t.Fatalf("pins = %d, want 2", got)
	}
	if got := st.m.pinnedReaders.Value(); got != 2 {
		t.Fatalf("pinnedReaders gauge = %v, want 2", got)
	}
	g1.Unpin()
	g2.Unpin()
	if got := st.m.pinnedReaders.Value(); got != 0 {
		t.Fatalf("pinnedReaders gauge after unpin = %v, want 0", got)
	}
}

func TestCloseRejectsWritesKeepsReads(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	st := seedStore(t, 10, Options{})
	if _, err := st.ApplyBatch([]Op{{Kind: OpInsert, Words: []string{"w"}}}); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, st)
	st.Close()
	st.Close() // idempotent
	if _, err := st.ApplyBatch([]Op{{Kind: OpInsert, Words: []string{"w"}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	g := st.Pin()
	defer g.Unpin()
	if g.Eng.DS.Len() != 11 {
		t.Fatalf("reads after close see %d objects, want 11", g.Eng.DS.Len())
	}
}

// TestRepackKeepsIdsAndResetsEditCount: a re-pack swaps in a freshly
// bulk-loaded tree — bit-identical to irtree.Build over the generation's
// own dataset — while object ids, keys and postings stand, and the edit
// count it is triggered by starts over.
func TestRepackKeepsIdsAndResetsEditCount(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	// 40 objects at 0.2: the 8th op re-packs.
	st := seedStore(t, 40, Options{compactFrac: 0.2})
	for k := uint64(0); k < 7; k++ {
		if _, err := st.ApplyBatch([]Op{{Kind: OpEdit, Key: k, Words: []string{"w000000", "fresh"}}}); err != nil {
			t.Fatal(err)
		}
		waitIdle(t, st)
	}
	if got := st.m.repacks.Value(); got != 0 {
		t.Fatalf("%d re-packs after 7 ops on 40 objects at 0.2", got)
	}
	if got := st.m.editsSince.Value(); got != 7 {
		t.Fatalf("edits_since_repack = %v, want 7", got)
	}
	before := st.Pin()
	defer before.Unpin()
	if _, err := st.ApplyBatch([]Op{{Kind: OpEdit, Key: 20, Words: []string{"w000001"}}}); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, st)
	if got := st.m.repacks.Value(); got != 1 {
		t.Fatalf("re-packs = %d, want 1", got)
	}
	if got := st.m.editsSince.Value(); got != 0 {
		t.Fatalf("edits_since_repack = %v after the re-pack, want 0", got)
	}
	g := st.Pin()
	defer g.Unpin()
	checkGeneration(t, g)
	if !reflect.DeepEqual(g.Keys, before.Keys) {
		t.Fatalf("a keyword edit plus re-pack moved keys: %v -> %v", before.Keys, g.Keys)
	}
	packed := irtree.Build(g.Eng.DS, g.Eng.Tree.Fanout())
	if got, want := g.Eng.Tree.Stats(), packed.Stats(); got != want {
		t.Fatalf("re-packed tree %+v, a fresh build %+v", got, want)
	}
	if got, want := st.m.treeNodes.Value(), float64(packed.Nodes()); got != want {
		t.Fatalf("tree_nodes gauge = %v, want %v", got, want)
	}
}

func TestLastApplyTrace(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	for _, tc := range []struct {
		frac   float64
		phases []string
	}{
		{frac: -1, phases: []string{"epoch.edit"}},
		{frac: 0.01, phases: []string{"epoch.edit", "epoch.repack"}},
	} {
		st := seedStore(t, 10, Options{compactFrac: tc.frac})
		if st.LastApply() != nil {
			t.Fatal("trace before first apply")
		}
		if _, err := st.ApplyBatch([]Op{{Kind: OpInsert, Words: []string{"w"}}}); err != nil {
			t.Fatal(err)
		}
		waitIdle(t, st)
		testutil.WaitFor(t, 2*time.Second, "apply trace", func() bool { return st.LastApply() != nil })
		xp := st.LastApply()
		if len(xp.Spans) != 1 || xp.Spans[0].Name != "epoch.apply" || xp.Spans[0].Attrs["ops"] != 1 {
			t.Fatalf("apply trace's top level is %+v, want one epoch.apply span with ops=1", xp.Spans)
		}
		var phases []string
		for _, sp := range xp.Spans[0].Children {
			phases = append(phases, sp.Name)
		}
		if !slices.Equal(phases, tc.phases) {
			t.Fatalf("compactFrac %v: apply phases %v, want %v", tc.frac, phases, tc.phases)
		}
		// One insert: the seed tree's root-to-leaf path, and one posting list.
		if a := xp.Spans[0].Children[0].Attrs; a["cloned_nodes"] < 1 || a["touched_postings"] != 1 {
			t.Fatalf("epoch.edit attrs %v", a)
		}
	}
}

// generationErr reports how g breaks what every published generation
// must satisfy on its own: Objects is the live set under dense ids with
// one key each, the IR-tree indexes exactly those objects with every
// node's inverted file equal to the one recomputed from below, and the
// postings equal invindex.Build of the generation's own dataset, list
// for list.
func generationErr(g *Generation) error {
	ds := g.Eng.DS
	if len(g.Keys) != ds.Len() {
		return fmt.Errorf("gen %d: %d keys for %d objects", g.Gen, len(g.Keys), ds.Len())
	}
	seen := make(map[uint64]bool, len(g.Keys))
	for i := range ds.Objects {
		if ds.Objects[i].ID != dataset.ObjectID(i) {
			return fmt.Errorf("gen %d: object in slot %d carries id %d", g.Gen, i, ds.Objects[i].ID)
		}
		if seen[g.Keys[i]] {
			return fmt.Errorf("gen %d: key %d held by two objects", g.Gen, g.Keys[i])
		}
		seen[g.Keys[i]] = true
	}
	if err := g.Eng.Tree.CheckInvariants(); err != nil {
		return fmt.Errorf("gen %d: %w", g.Gen, err)
	}
	built := invindex.Build(ds)
	for kw := range ds.Vocab.Words() {
		got, want := g.Eng.Inv.Postings(kwds.ID(kw)), built.Postings(kwds.ID(kw))
		if !slices.Equal(got, want) {
			return fmt.Errorf("gen %d: postings of %q are %v, a build over the live set gives %v", g.Gen, ds.Vocab.Word(kwds.ID(kw)), got, want)
		}
	}
	return nil
}

func checkGeneration(t testing.TB, g *Generation) {
	t.Helper()
	if err := generationErr(g); err != nil {
		t.Fatal(err)
	}
}

// checkKeyMap asserts, on an idle store, that the key map is the inverse
// of the published generation's key table.
func checkKeyMap(t testing.TB, st *Store) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	g := st.cur.Load()
	if len(st.byKey) != len(g.Keys) {
		t.Fatalf("gen %d: key map holds %d keys, the generation %d", g.Gen, len(st.byKey), len(g.Keys))
	}
	for id, key := range g.Keys {
		if got, ok := st.byKey[key]; !ok || got != dataset.ObjectID(id) {
			t.Fatalf("gen %d: key %d maps to %d (present %v), want %d", g.Gen, key, got, ok, id)
		}
	}
}

// TestLastCarrierRetiresWord: a word is known exactly while some live
// object carries it — deleting (or editing away) its last carrier makes
// it unknown again, as it would be to an index built from the live set,
// and a re-insert makes it known under the id it had. Words of the seed
// vocabulary and unrelated generations are untouched.
func TestLastCarrierRetiresWord(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	st := seedStore(t, 20, Options{})
	g0 := st.Pin()
	defer g0.Unpin()
	words0 := g0.Eng.DS.Vocab.Len()

	apply := func(ops ...Op) *Generation {
		t.Helper()
		flushChurn(t, st, ops)
		waitIdle(t, st)
		g := st.Pin()
		t.Cleanup(g.Unpin)
		checkGeneration(t, g)
		return g
	}
	lookup := func(g *Generation, w string) (kwds.ID, bool) { return g.Eng.DS.Vocab.Lookup(w) }

	loc := geo.Point{X: 10, Y: 10}
	g1 := apply(Op{Kind: OpInsert, Key: 100, HasKey: true, Loc: loc, Words: []string{"zebra", "w000000"}},
		Op{Kind: OpInsert, Key: 101, HasKey: true, Loc: loc, Words: []string{"zebra"}})
	zebra, ok := lookup(g1, "zebra")
	if !ok || g1.Eng.DS.Vocab.Len() != words0+1 {
		t.Fatalf("after the inserts: zebra known=%v, %d words (seed %d)", ok, g1.Eng.DS.Vocab.Len(), words0)
	}
	if _, ok := lookup(g0, "zebra"); ok {
		t.Fatal("generation 0's vocabulary learnt a word from a later batch")
	}

	// One carrier left: still known. The vocabulary is shared, not cloned.
	g2 := apply(Op{Kind: OpDelete, Key: 100})
	if _, ok := lookup(g2, "zebra"); !ok || g2.Eng.DS.Vocab != g1.Eng.DS.Vocab {
		t.Fatalf("zebra known=%v with a carrier left; vocabulary cloned=%v", ok, g2.Eng.DS.Vocab != g1.Eng.DS.Vocab)
	}

	// The last carrier edits the word away: unknown, uncounted, infeasible to ask for.
	g3 := apply(Op{Kind: OpEdit, Key: 101, Words: []string{"w000001"}})
	if _, ok := lookup(g3, "zebra"); ok || g3.Eng.DS.Vocab.Len() != words0 {
		t.Fatalf("zebra known=%v after its last carrier dropped it, %d words (seed %d)", ok, g3.Eng.DS.Vocab.Len(), words0)
	}
	if _, err := query(g3, loc, []string{"zebra"}, core.MaxSum, core.OwnerExact); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("query for a retired word: %v", err)
	}
	if _, ok := lookup(g2, "zebra"); !ok {
		t.Fatal("retiring the word in generation 3 reached back into generation 2")
	}

	// Re-insert: known again, same id, findable.
	g4 := apply(Op{Kind: OpInsert, Key: 102, HasKey: true, Loc: loc, Words: []string{"zebra"}})
	if id, ok := lookup(g4, "zebra"); !ok || id != zebra {
		t.Fatalf("re-inserted zebra: known=%v id=%d, want id %d", ok, id, zebra)
	}
	res, err := query(g4, loc, []string{"zebra"}, core.MaxSum, core.OwnerExact)
	if err != nil || len(res.Set) != 1 || g4.Key(res.Set[0]) != 102 {
		t.Fatalf("query for the re-inserted word: %+v, %v", res, err)
	}

	// Introduced and orphaned within one pass: never becomes known.
	g5 := apply(Op{Kind: OpInsert, Key: 103, HasKey: true, Loc: loc, Words: []string{"gnu"}}, Op{Kind: OpDelete, Key: 103})
	if _, ok := lookup(g5, "gnu"); ok {
		t.Fatal("a word whose only carrier came and went in one batch is known")
	}
}

// TestSeqConcurrentRetriesApplyOnce: sixteen in-flight copies of one
// tokened batch — a client retrying while its first attempt is still
// being served — assign one key and enqueue one op; the other fifteen
// replay it.
func TestSeqConcurrentRetriesApplyOnce(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	st := seedStore(t, 10, Options{})
	const copies = 16
	mutations := st.m.mutations.Value()
	keys := make([]uint64, copies)
	var replays atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < copies; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sts, replayed, err := st.ApplyBatchSeq("retry-storm", []Op{{Kind: OpInsert, Words: []string{"w"}}})
			if err != nil || len(sts) != 1 || sts[0].Err != "" {
				t.Errorf("copy %d: statuses %v, err %v", i, sts, err)
				return
			}
			keys[i] = sts[0].Key
			if replayed {
				replays.Add(1)
			}
		}(i)
	}
	wg.Wait()
	waitIdle(t, st)
	for i, k := range keys {
		if k != 10 {
			t.Fatalf("copy %d was assigned key %d, want 10 for all (keys %v)", i, k, keys)
		}
	}
	if got := st.m.mutations.Value() - mutations; got != 1 {
		t.Fatalf("mutations_total moved by %d, want 1", got)
	}
	if replays.Load() != copies-1 || st.m.seqReplays.Value() != copies-1 {
		t.Fatalf("%d replays flagged, seq_replays_total %d, want %d", replays.Load(), st.m.seqReplays.Value(), copies-1)
	}
	g := st.Pin()
	defer g.Unpin()
	if g.Eng.DS.Len() != 11 {
		t.Fatalf("live objects = %d, want 11", g.Eng.DS.Len())
	}
}

// TestWaitIdleBlocksOnCommit: WaitIdle sleeps until the applier commits
// (no polling interval to measure), gives up with its context, and
// reports a store closed over pending ops instead of waiting for ever.
func TestWaitIdleBlocksOnCommit(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	st := seedStore(t, 10, Options{retryDelay: time.Millisecond})
	if err := st.WaitIdle(context.Background()); err != nil {
		t.Fatalf("idle store: %v", err)
	}
	disarm := fault.Arm(5, fault.Rule{Point: fault.EpochSwap, Kind: fault.KindCancel, Every: 1})
	defer disarm()
	if _, err := st.ApplyBatch([]Op{{Kind: OpInsert, Words: []string{"w"}}}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := st.WaitIdle(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitIdle on a store that cannot commit: %v", err)
	}
	woke := make(chan error, 1)
	go func() { woke <- st.WaitIdle(context.Background()) }()
	st.Close()
	if err := <-woke; !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitIdle across Close with an op pending: %v", err)
	}

	// And the commit itself wakes it.
	disarm()
	st2 := seedStore(t, 10, Options{})
	if _, err := st2.ApplyBatch([]Op{{Kind: OpInsert, Words: []string{"w"}}}); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, st2)
	if st2.Current() != 1 {
		t.Fatalf("WaitIdle returned at generation %d, before the commit", st2.Current())
	}
}
