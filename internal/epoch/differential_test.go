package epoch

// Differential proof: after every seeded churn schedule, the live epoch
// store's answers are bit-identical in cost and identical in key set —
// all five cost functions, exact and approximation — to an index built
// from scratch by an independent replayer. The replayer shares no code
// with the applier: it keeps a plain list of live objects under the
// store's documented slot contract (insert appends, edit updates in
// place, delete moves the last object into the freed slot) and bulk-loads
// a fresh engine from it.
//
// What the identity rests on: the same objects in the same slots, hence
// the same distances, summed in the same order (Sum adds its members'
// distances in id order). What differs: the tree's shape — the store's is
// edited by path copying, the replayer's is packed — and, were the
// replayer left to intern on first sight, keyword ids. Keyword-id order
// does reach an answer: the NN seed N(q) is assembled, and its Sum cost
// added up, in query-keyword-id order, so Sum/OwnerAppro (whose answer is
// often N(q) itself) drifts in the last ulp; the replayer therefore pre-interns the store's
// vocabulary in the store's order. Tree shape reaches none: the one
// algorithm that read a pool in tree order, MinMax-Exact (whose optima tie
// — a member neither nearest nor on the diameter is free), now sorts each
// owner's disk by query distance first. On top of the answers, every
// generation the schedule publishes is checked on its own
// (checkGeneration): the IR-tree's inverted files equal those recomputed
// from below, and postings equal invindex.Build of the generation's dataset.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/testutil"
)

// replayObj is one live object in the reference replayer.
type replayObj struct {
	key   uint64
	loc   geo.Point
	words []string
}

// replayer is the independent model of the mutation semantics.
type replayer struct {
	live []replayObj
}

// newReplayer seeds the model from a dataset exactly as New seeds the
// store: keys 0..n-1 in object order.
func newReplayer(ds *dataset.Dataset) *replayer {
	r := &replayer{live: make([]replayObj, ds.Len())}
	for i := range ds.Objects {
		o := &ds.Objects[i]
		words := make([]string, o.Keywords.Len())
		for j, id := range o.Keywords {
			words[j] = ds.Vocab.Word(id)
		}
		r.live[i] = replayObj{key: uint64(i), loc: o.Loc, words: words}
	}
	return r
}

func (r *replayer) apply(op datagen.ChurnOp) {
	switch op.Kind {
	case "insert":
		r.live = append(r.live, replayObj{key: op.Key, loc: op.Loc, words: op.Words})
	case "delete":
		for i := range r.live {
			if r.live[i].key == op.Key {
				last := len(r.live) - 1
				r.live[i] = r.live[last]
				r.live = r.live[:last]
				return
			}
		}
		panic(fmt.Sprintf("replayer: delete of dead key %d", op.Key))
	case "edit":
		// Keyword-only, matching the epoch op contract.
		for i := range r.live {
			if r.live[i].key == op.Key {
				r.live[i].words = op.Words
				return
			}
		}
		panic(fmt.Sprintf("replayer: edit of dead key %d", op.Key))
	}
}

// rebuild constructs a fresh engine from the model's live objects, in
// slot order — the from-scratch index the live store is checked against —
// at the fanout and under the keyword ids of the generation it is
// compared with (g's vocabulary lists every word the store ever saw,
// retired ones included, which the rebuild simply finds carrier-less).
func (r *replayer) rebuild(name string, g *Generation) (*core.Engine, []uint64) {
	b := dataset.NewBuilder(name)
	for _, w := range g.Eng.DS.Vocab.Words() {
		b.Vocab().Intern(w)
	}
	keys := make([]uint64, len(r.live))
	for i, o := range r.live {
		b.Add(o.loc, o.words...)
		keys[i] = o.key
	}
	return core.NewEngine(b.Build(), g.Eng.Tree.Fanout()), keys
}

func toEpochOp(op datagen.ChurnOp) Op {
	return Op{Kind: OpKind(op.Kind), Key: op.Key, HasKey: true, Loc: op.Loc, Words: op.Words}
}

var allCosts = []core.CostKind{core.MaxSum, core.Dia, core.Sum, core.MinMax, core.SumMax}

// diffQuery solves one (query, cost, method) on both engines and
// demands bit-identical outcomes: same error, same cost, same canonical
// key set.
func diffQuery(t *testing.T, liveGen *Generation, ref *core.Engine, refKeys []uint64,
	loc geo.Point, words []string, cost core.CostKind, method core.Method) {
	t.Helper()
	resolve := func(eng *core.Engine) (kwds.Set, bool) {
		var set kwds.Set
		for _, w := range words {
			id, ok := eng.DS.Vocab.Lookup(w)
			if !ok {
				return set, false
			}
			set = set.Union(kwds.NewSet(id))
		}
		return set, true
	}
	lq, lok := resolve(liveGen.Eng)
	rq, rok := resolve(ref)
	if !rok {
		// The rebuild knows every word the store ever interned.
		if lok {
			t.Fatalf("%v/%v kw=%v: the store knows a word its own vocabulary does not list", cost, method, words)
		}
		return
	}
	rres, rerr := ref.Solve(core.Query{Loc: loc, Keywords: rq}, cost, method)
	if !lok {
		// The store forgets a word exactly when its last carrier goes.
		if !errors.Is(rerr, core.ErrInfeasible) {
			t.Fatalf("%v/%v kw=%v: unknown to the store, yet the rebuild answers (err %v)", cost, method, words, rerr)
		}
		return
	}
	lres, lerr := liveGen.Eng.Solve(core.Query{Loc: loc, Keywords: lq}, cost, method)
	if (lerr == nil) != (rerr == nil) {
		t.Fatalf("%v/%v kw=%v: live err=%v ref err=%v", cost, method, words, lerr, rerr)
	}
	if lerr != nil {
		return
	}
	if lres.Cost != rres.Cost {
		t.Fatalf("%v/%v kw=%v: live cost %v != ref cost %v", cost, method, words, lres.Cost, rres.Cost)
	}
	lkeys := make(map[uint64]bool, len(lres.Set))
	for _, id := range lres.Set {
		lkeys[liveGen.Key(id)] = true
	}
	same := len(lres.Set) == len(rres.Set)
	for _, id := range rres.Set {
		same = same && lkeys[refKeys[id]]
	}
	if !same {
		t.Fatalf("%v/%v kw=%v: live set (keys %v) != rebuild's %v", cost, method, words, lkeys, rres.Set)
	}
}

// runDifferential drives one seeded schedule through a live store and
// the replayer, checking every generation it publishes, then
// cross-checks a query battery over every cost × exact+appro.
func runDifferential(t *testing.T, seed int64, churnOps, batchSize int, opts Options) {
	testutil.CheckGoroutineLeaks(t)
	const seedObjects = 80
	ds := datagen.Generate(datagen.Config{
		Name: "diff", NumObjects: seedObjects, VocabSize: 48, AvgKeywords: 3, Seed: seed,
	})
	st := New(core.NewEngine(ds, 0), opts)
	defer st.Close()
	model := newReplayer(ds)

	stream := datagen.NewChurnStream(datagen.ChurnConfig{
		Seed: seed, Ops: churnOps, SeedKeys: seedObjects, Vocab: 48,
	})
	var batch []Op
	for {
		op, ok := stream.Next()
		if !ok {
			break
		}
		model.apply(op)
		batch = append(batch, toEpochOp(op))
		if len(batch) >= batchSize {
			flushAndCheck(t, st, batch)
			batch = batch[:0]
		}
	}
	flushAndCheck(t, st, batch)

	g := st.Pin()
	defer g.Unpin()
	ref, refKeys := model.rebuild("diff", g)

	if g.Eng.DS.Len() != ref.DS.Len() {
		t.Fatalf("live has %d objects, rebuild has %d", g.Eng.DS.Len(), ref.DS.Len())
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for qi := 0; qi < 12; qi++ {
		loc := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		nw := 2 + rng.Intn(3)
		words := make([]string, nw)
		for i := range words {
			words[i] = fmt.Sprintf("w%06d", rng.Intn(12)) // hot head: usually feasible
		}
		for _, cost := range allCosts {
			for _, method := range []core.Method{core.OwnerExact, core.OwnerAppro} {
				diffQuery(t, g, ref, refKeys, loc, words, cost, method)
			}
		}
	}
}

// flushChurn applies one batch, asserting every op is accepted — the
// stream only emits valid schedules.
func flushChurn(t *testing.T, st *Store, batch []Op) {
	t.Helper()
	if len(batch) == 0 {
		return
	}
	sts, err := st.ApplyBatch(batch)
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	for i, s := range sts {
		if s.Err != "" {
			t.Fatalf("churn op %d (%s key %d) rejected: %s", i, batch[i].Kind, batch[i].Key, s.Err)
		}
	}
}

// flushAndCheck applies one batch, waits for it to become visible and
// checks the generation that made it so.
func flushAndCheck(t *testing.T, st *Store, batch []Op) {
	t.Helper()
	flushChurn(t, st, batch)
	waitIdle(t, st)
	g := st.Pin()
	defer g.Unpin()
	checkGeneration(t, g)
	checkKeyMap(t, st)
}

func TestDifferentialAfterChurn(t *testing.T) {
	for _, tc := range []struct {
		seed       int64
		ops, batch int
		opts       Options
	}{
		{seed: 1, ops: 200, batch: 16, opts: Options{compactFrac: 0.5}},  // long edited stretches between re-packs
		{seed: 2, ops: 400, batch: 1, opts: Options{}},                   // one delta per op, the default policy
		{seed: 3, ops: 300, batch: 64, opts: Options{compactFrac: 0.01}}, // re-pack every pass
		{seed: 4, ops: 500, batch: 32, opts: Options{compactFrac: -1}},   // never re-pack: 500 ops of path copying on 80 objects
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed%d_batch%d", tc.seed, tc.batch), func(t *testing.T) {
			runDifferential(t, tc.seed, tc.ops, tc.batch, tc.opts)
		})
	}
}

// TestDifferentialConcurrentReaders runs the same proof while a reader
// continuously pins, checks and solves during the churn — the -race leg
// that a swap never tears a read and that the applier never writes a node
// or posting list a published generation shares. Its writes are not
// waited for, so apply passes here fold several deltas.
func TestDifferentialConcurrentReaders(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	const seedObjects = 60
	ds := datagen.Generate(datagen.Config{
		Name: "diff-rw", NumObjects: seedObjects, VocabSize: 32, AvgKeywords: 3, Seed: 9,
	})
	st := New(core.NewEngine(ds, 0), Options{compactFrac: 0.05})
	defer st.Close()
	model := newReplayer(ds)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(77))
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := st.Pin()
			if err := generationErr(g); err != nil {
				t.Error(err)
				g.Unpin()
				return
			}
			loc := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			words := []string{fmt.Sprintf("w%06d", rng.Intn(8)), fmt.Sprintf("w%06d", rng.Intn(8))}
			if res, err := query(g, loc, words, core.MaxSum, core.OwnerAppro); err == nil {
				// Every member the pinned generation returned must resolve
				// to a key of that same generation — a torn read would
				// surface as an out-of-range panic or a -race report.
				for _, id := range res.Set {
					_ = g.Key(id)
				}
			}
			g.Unpin()
		}
	}()

	stream := datagen.NewChurnStream(datagen.ChurnConfig{
		Seed: 9, Ops: 300, SeedKeys: seedObjects, Vocab: 32,
	})
	for {
		op, ok := stream.Next()
		if !ok {
			break
		}
		model.apply(op)
		flushChurn(t, st, []Op{toEpochOp(op)})
	}
	waitIdle(t, st)
	close(stop)
	<-done

	g := st.Pin()
	defer g.Unpin()
	ref, refKeys := model.rebuild("diff-rw", g)
	rng := rand.New(rand.NewSource(78))
	for qi := 0; qi < 6; qi++ {
		loc := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		words := []string{fmt.Sprintf("w%06d", rng.Intn(8)), fmt.Sprintf("w%06d", rng.Intn(8))}
		for _, cost := range allCosts {
			diffQuery(t, g, ref, refKeys, loc, words, cost, core.OwnerExact)
		}
	}
}
