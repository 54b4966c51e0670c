// Package epoch makes the bulk-loaded CoSKQ index live: an RCU-style
// snapshot layer where writers batch mutations (insert, delete, keyword
// edit) into immutable deltas, a background applier derives the next
// IR-tree / inverted-index / object-table generation from the current one
// — copying only what the deltas touch — and readers pin a snapshot
// pointer so every search runs against one internally consistent
// generation from keyword resolution through answer rendering.
//
// The torn-index impossibility argument (DESIGN.md §16) rests on three
// properties enforced here:
//
//  1. Generations are immutable. Nothing reachable from a *Generation is
//     written after the atomic pointer swap that publishes it — the
//     applier's editors clone every tree node and posting list before
//     writing it, and what they do not clone they share read-only — so
//     readers that obtained a generation (pinned or not) can never
//     observe a partially applied delta.
//  2. The applier is crash-safe by copy-on-write. The next generation is
//     staged entirely off to the side and is unreachable until the swap;
//     any failure before the final commit — including injected panics at
//     the EpochApply/EpochSwap/CompactRun fault points — leaves the
//     published generation, the key map, and the pending delta queue
//     untouched, so a retry is idempotent and the faulted stage is
//     garbage.
//  3. Writers never block readers. Mutations enqueue under a store
//     mutex the read path never takes; when the applier falls behind,
//     the bounded backlog rejects writes (ErrBacklogFull → HTTP 429),
//     never reads.
//
// Pin/Unpin refcounts do not gate the swap (RCU: writers never wait for
// readers); they exist only so operators can see long-lived pins
// (coskq_epoch_pinned_readers).
package epoch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/invindex"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// OpKind names a mutation. The strings are the wire vocabulary of
// POST /objects.
type OpKind string

const (
	OpInsert OpKind = "insert"
	OpDelete OpKind = "delete"
	OpEdit   OpKind = "edit"
)

// Op is one mutation. Keys are stable object identities; a
// dataset.ObjectID is an object's dense slot in one generation and moves
// when a delete fills the slot it frees with the last object. Inserts may
// carry a caller-chosen key (HasKey) or have one assigned from the
// store's high-watermark; deletes and edits address an existing live key.
// Edits are keyword-only — Loc is ignored on OpEdit (an object that
// moves is a delete + insert, which also makes the move visible to
// spatial pruning as the two events it really is).
type Op struct {
	Kind   OpKind
	Key    uint64
	HasKey bool // insert only: Key was supplied by the caller
	Loc    geo.Point
	Words  []string
}

// ItemStatus is the per-op outcome of ApplyBatch, in the established
// per-item error vocabulary: an empty Err means the op was accepted
// into a delta (it becomes visible at the next generation swap), and
// Key echoes the — possibly assigned — object key.
type ItemStatus struct {
	Key uint64
	Err string
}

// Per-item error vocabulary (mirrors the /batch endpoint's style).
const (
	errUnknownKey    = "unknown key"
	errKeyExists     = "key exists"
	errEmptyKeywords = "empty keywords"
	errBadOp         = "bad op"
)

// ErrBacklogFull is returned by ApplyBatch when accepting the batch
// would push the pending-delta backlog past Options.MaxBacklog — the
// applier has fallen behind and the write path degrades with a 429.
// Reads are never throttled.
var ErrBacklogFull = errors.New("epoch: delta backlog full")

// ErrClosed is returned by ApplyBatch after Close.
var ErrClosed = errors.New("epoch: store closed")

// delta is one immutable batch of validated ops awaiting application.
type delta struct {
	ops []Op
}

// Generation is one published snapshot: an engine (IR-tree + inverted
// index + vocabulary) over the dataset at generation Gen — Eng.DS.Objects
// is exactly the live set — plus the ObjectID→key table that maps its
// dense ids back to stable keys. Everything reachable from a Generation
// is immutable, and much of it is shared with its neighbours.
type Generation struct {
	Gen  uint64
	Eng  *core.Engine
	Keys []uint64 // ObjectID → stable key

	pins  atomic.Int64
	gauge func(delta float64) // pinned-readers gauge hook (nil-safe)
}

// Key maps a dense per-generation ObjectID to its stable key.
func (g *Generation) Key(id dataset.ObjectID) uint64 { return g.Keys[id] }

// Pins returns the current pin count (observability/tests).
func (g *Generation) Pins() int64 { return g.pins.Load() }

// Unpin releases a pin taken by Store.Pin. Every Pin must be matched by
// exactly one Unpin on all paths, or the gauge reads a reader that is
// gone; the generation itself stays valid afterwards — unpinned
// generations are reclaimed by the garbage collector once unreachable.
func (g *Generation) Unpin() {
	g.pins.Add(-1)
	if g.gauge != nil {
		g.gauge(-1)
	}
}

// Options configures a Store.
type Options struct {
	// MaxBacklog bounds the number of pending ops across all queued
	// deltas; ApplyBatch returns ErrBacklogFull beyond it. Zero
	// defaults to 4096.
	MaxBacklog int

	// compactFrac replaces repackFrac: tests set it to re-pack every
	// pass or, negative, never. Zero keeps repackFrac.
	compactFrac float64

	// seqCap bounds the idempotency-token LRU (ApplyBatchSeq). Zero
	// defaults to 1024; only tests set it.
	seqCap int

	// retryDelay is the applier's backoff after a failed (faulted)
	// apply attempt. Zero defaults to 2ms; only tests set it.
	retryDelay time.Duration
}

// repackFrac is the re-pack threshold: once the ops applied since the
// last STR bulk load reach this fraction of the object count, the applier
// bulk-loads a fresh tree (object ids do not move), which bounds the
// edited tree's drift from a packed one (TestTreeHealthUnderChurn logs
// the drift; DESIGN.md §16.3).
const repackFrac = 0.25

func (o Options) withDefaults() Options {
	if o.MaxBacklog <= 0 {
		o.MaxBacklog = 4096
	}
	if o.compactFrac == 0 {
		o.compactFrac = repackFrac
	}
	if o.seqCap <= 0 {
		o.seqCap = 1024
	}
	if o.retryDelay <= 0 {
		o.retryDelay = 2 * time.Millisecond
	}
	return o
}

// Store is the live update layer over one logical object collection.
// Readers call Pin/Unpin; writers call ApplyBatch (or ApplyBatchSeq for
// idempotent retries); a single background applier goroutine turns
// pending deltas into fresh generations. Safe for concurrent use.
type Store struct {
	opts Options

	mu         sync.Mutex
	byKey      map[uint64]dataset.ObjectID // live key → id in the published generation
	edits      int                         // ops applied since the last bulk load
	pending    []delta
	pendingOps int
	nextKey    uint64
	seq        *seqLRU
	closed     bool
	commit     chan struct{} // closed and replaced at every commit and on Close

	cur atomic.Pointer[Generation]

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup

	lastApply atomic.Pointer[trace.Export]

	m storeMetrics
}

// New builds a Store seeded from an existing engine: the seed dataset's
// objects get stable keys 0..n-1 and the engine itself is published as
// generation 0, so wrapping a static deployment costs a key map until
// the first mutation. The engine's serving knobs (budget, parallelism,
// degrade policy, metrics, NN-cache capacity) and its tree's fanout are
// inherited by every later generation, each of which is derived from the
// engine's DS, Tree and Inv — eng must carry all three (core.NewEngine).
func New(eng *core.Engine, opts Options) *Store {
	n := eng.DS.Len()
	s := &Store{
		opts:    opts.withDefaults(),
		byKey:   make(map[uint64]dataset.ObjectID, n),
		nextKey: uint64(n),
		commit:  make(chan struct{}),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	s.m.init(eng)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
		s.byKey[uint64(i)] = dataset.ObjectID(i)
	}
	s.seq = newSeqLRU(s.opts.seqCap)
	s.cur.Store(&Generation{Gen: 0, Eng: eng, Keys: keys, gauge: s.m.pinGauge()})
	s.m.published(0, eng.Tree, 0)
	s.wg.Add(1)
	go s.run()
	return s
}

// Close stops the applier and waits for it to drain. Pending deltas
// that have not been applied are dropped; subsequent ApplyBatch calls
// fail with ErrClosed. Reads (Pin) keep working against the last
// published generation.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.signalLocked()
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
}

// Pin returns the current generation with its refcount held. The loop
// re-checks the pointer after incrementing so a pin can never land on a
// generation that was already superseded before the count was visible.
// Callers must Unpin on every path.
func (s *Store) Pin() *Generation {
	for {
		g := s.cur.Load()
		g.pins.Add(1)
		if s.cur.Load() == g {
			if g.gauge != nil {
				g.gauge(1)
			}
			return g
		}
		g.pins.Add(-1)
	}
}

// SolveWords answers one query on the current generation, pinned for
// the whole call, so keyword resolution, the solve and member rendering
// see one snapshot.
func (s *Store) SolveWords(ctx context.Context, loc geo.Point, words []string, cost core.CostKind, method core.Method) (core.Answer, error) {
	g := s.Pin()
	defer g.Unpin()
	return g.Eng.SolveWords(ctx, loc, words, cost, method)
}

// Current returns the published generation number without pinning.
func (s *Store) Current() uint64 { return s.cur.Load().Gen }

// Backlog returns the number of pending (accepted, not yet applied)
// ops.
func (s *Store) Backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingOps
}

// LastApply returns the trace export of the most recent successful
// apply pass (nil before the first): an epoch.apply span over its
// epoch.edit and, when the pass re-packed, epoch.repack phases.
func (s *Store) LastApply() *trace.Export { return s.lastApply.Load() }

// ApplyBatch validates ops against the logical state (the published key
// map plus every pending delta, plus earlier ops of this same batch),
// enqueues the accepted ones as one immutable delta and kicks the
// applier. The returned statuses are per-op in batch order; a non-nil
// error means the whole batch was rejected (backlog full, store closed)
// and nothing was enqueued.
func (s *Store) ApplyBatch(ops []Op) ([]ItemStatus, error) {
	statuses, _, err := s.ApplyBatchSeq("", ops)
	return statuses, err
}

// ApplyBatchSeq is ApplyBatch with an idempotency token: a batch
// retried with the same non-empty seq (after a lost response) is
// applied at most once — the recorded statuses of the first acceptance
// are replayed verbatim, including assigned keys. Token lookup,
// validation, enqueue and recording happen under one hold of the store
// lock, so concurrent retries of one token cannot both miss. Tokens live
// in a bounded LRU (1024 tokens).
func (s *Store) ApplyBatchSeq(seq string, ops []Op) (statuses []ItemStatus, replayed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq != "" {
		if st, ok := s.seq.get(seq); ok {
			s.m.seqReplays.Add(1)
			return st, true, nil
		}
	}
	statuses, err = s.enqueueLocked(ops)
	if err != nil {
		// Rejected batches record nothing: a retry after 429 should
		// re-attempt, not replay the rejection.
		return nil, false, err
	}
	if seq != "" {
		s.seq.put(seq, statuses)
	}
	return statuses, false, nil
}

// enqueueLocked is the body of ApplyBatch. Callers hold s.mu.
func (s *Store) enqueueLocked(ops []Op) ([]ItemStatus, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if s.pendingOps+len(ops) > s.opts.MaxBacklog {
		s.m.backlogRejects.Add(1)
		return nil, ErrBacklogFull
	}
	statuses := make([]ItemStatus, len(ops))
	// overlay tracks liveness decided earlier in this batch.
	overlay := make(map[uint64]bool)
	accepted := make([]Op, 0, len(ops))
	for i, op := range ops {
		st := &statuses[i]
		st.Key = op.Key
		switch op.Kind {
		case OpInsert:
			if len(op.Words) == 0 {
				st.Err = errEmptyKeywords
				continue
			}
			if op.HasKey {
				if s.liveOverlay(op.Key, overlay) {
					st.Err = errKeyExists
					continue
				}
			} else {
				op.Key = s.nextKey
				s.nextKey++
				st.Key = op.Key
			}
			if op.Key >= s.nextKey {
				s.nextKey = op.Key + 1
			}
			overlay[op.Key] = true
			accepted = append(accepted, op)
		case OpDelete:
			if !s.liveOverlay(op.Key, overlay) {
				st.Err = errUnknownKey
				continue
			}
			overlay[op.Key] = false
			accepted = append(accepted, op)
		case OpEdit:
			if len(op.Words) == 0 {
				st.Err = errEmptyKeywords
				continue
			}
			if !s.liveOverlay(op.Key, overlay) {
				st.Err = errUnknownKey
				continue
			}
			accepted = append(accepted, op)
		default:
			st.Err = errBadOp
		}
	}
	if len(accepted) > 0 {
		s.pending = append(s.pending, delta{ops: accepted})
		s.pendingOps += len(accepted)
		s.m.mutations.Add(uint64(len(accepted)))
		s.m.backlog.Set(float64(s.pendingOps))
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return statuses, nil
}

// liveLocked reports whether key is live in the logical state: the
// newest pending op touching it wins; otherwise the published key map
// decides. Callers hold s.mu.
func (s *Store) liveLocked(key uint64) bool {
	for i := len(s.pending) - 1; i >= 0; i-- {
		ops := s.pending[i].ops
		for j := len(ops) - 1; j >= 0; j-- {
			if ops[j].Key != key {
				continue
			}
			switch ops[j].Kind {
			case OpDelete:
				return false
			default: // insert or edit
				return true
			}
		}
	}
	_, ok := s.byKey[key]
	return ok
}

func (s *Store) liveOverlay(key uint64, overlay map[uint64]bool) bool {
	if live, decided := overlay[key]; decided {
		return live
	}
	return s.liveLocked(key)
}

// run is the applier daemon: wait for a kick, then apply pending deltas
// until the queue drains, backing off briefly after a failed (faulted)
// attempt so retries never spin.
func (s *Store) run() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		}
		for {
			applied, err := s.applyOnce()
			if err != nil {
				s.m.applyFailures.Add(1)
				select {
				case <-s.stop:
					return
				case <-time.After(s.opts.retryDelay):
				}
				continue
			}
			if !applied {
				break
			}
		}
	}
}

// applyOnce derives and publishes one generation from the currently
// pending deltas. Everything up to the commit is staged on private
// copies; a panic injected at any fault point unwinds through the
// shield below, leaving the store exactly as it was — which is what
// makes the retry in run idempotent. Returns (false, nil) when there
// was nothing to do.
func (s *Store) applyOnce() (applied bool, err error) {
	s.mu.Lock()
	if len(s.pending) == 0 {
		s.mu.Unlock()
		return false, nil
	}
	// Snapshot. The delta slices are immutable, and only this goroutine
	// ever writes cur, byKey and edits — at the commit below, under the
	// lock — so reading them outside it is safe.
	deltas := s.pending[:len(s.pending):len(s.pending)]
	s.mu.Unlock()
	base := s.cur.Load()

	defer func() {
		if r := recover(); r != nil {
			switch p := r.(type) {
			case fault.Unwind:
				err = p
			case fault.Crash:
				err = fmt.Errorf("epoch: injected crash at %s", p.Point)
			default:
				panic(r)
			}
		}
	}()

	tr := trace.New("epoch.applier")
	root := tr.Begin("epoch.apply")
	nOps := opCount(deltas)
	root.Attr("ops", float64(nOps))
	root.Attr("deltas", float64(len(deltas)))

	sp := tr.Begin("epoch.edit")
	st := newStage(base, s.byKey, nOps)
	for _, d := range deltas {
		for _, op := range d.ops {
			fault.Hit(fault.EpochApply)
			st.apply(op)
		}
	}
	ds, inv, touched := st.finish()
	// Re-pack: path copying leaves the tree valid but no longer packed.
	// Once enough ops have accumulated, the pass bulk-loads a fresh tree
	// over the same objects instead of annotating the edited one — ids do
	// not move, so the postings and the key map stand.
	edits := s.edits + nOps
	repack := s.opts.compactFrac >= 0 && float64(edits) >= s.opts.compactFrac*float64(ds.Len())
	var tree *irtree.Tree
	if !repack {
		tree = st.tree.Tree(ds)
	}
	sp.Attr("cloned_nodes", float64(st.tree.Cloned()))
	sp.Attr("touched_postings", float64(touched))
	sp.End()

	if repack {
		sp := tr.Begin("epoch.repack")
		fault.Hit(fault.CompactRun)
		tree = irtree.Build(ds, base.Eng.Tree.Fanout())
		sp.Attr("objects", float64(ds.Len()))
		sp.Attr("edits", float64(edits))
		sp.End()
		edits = 0
	}
	// The next generation serves under the seed's Config. Its NN cache
	// starts empty at the old capacity: the old entries' validity radii
	// were proved against the old dataset.
	eng := &core.Engine{DS: ds, Tree: tree, Inv: inv, Config: base.Eng.Config}
	if c := base.Eng.NNCache; c != nil {
		eng.EnableNNCache(c.Capacity())
	}
	root.End()

	// Commit: one last fault window, then swap under the lock.
	fault.Hit(fault.EpochSwap)
	s.mu.Lock()
	gen := &Generation{Gen: base.Gen + 1, Eng: eng, Keys: st.keys, gauge: s.m.pinGauge()}
	for key, id := range st.moved {
		if id == noObject {
			delete(s.byKey, key)
		} else {
			s.byKey[key] = id
		}
	}
	s.edits = edits
	s.pending = s.pending[len(deltas):]
	s.pendingOps -= nOps
	s.cur.Store(gen)
	s.m.published(gen.Gen, tree, edits)
	s.m.backlog.Set(float64(s.pendingOps))
	s.m.applies.Add(1)
	if repack {
		s.m.repacks.Add(1)
	}
	s.signalLocked()
	s.mu.Unlock()

	tr.Finish()
	s.lastApply.Store(tr.Export())
	return true, nil
}

func opCount(deltas []delta) int {
	n := 0
	for _, d := range deltas {
		n += len(d.ops)
	}
	return n
}

// noObject marks a key a stage has deleted.
const noObject = ^dataset.ObjectID(0)

// stage is one apply pass's private next generation: flat copies of the
// base generation's object and key tables, and copy-on-write editors over
// its tree, postings and vocabulary. Nothing reachable from the base is
// written, and nothing here is reachable by a reader until the commit, so
// a pass that faults simply drops its stage.
type stage struct {
	name  string
	objs  []dataset.Object // the live set: objs[i].ID == i
	keys  []uint64         // ObjectID → key
	tree  *irtree.Editor
	inv   *invindex.Editor
	vocab *kwds.Vocabulary // the base's until a word is introduced or retired, then a clone
	owned bool             // vocab is this stage's clone

	byKey map[uint64]dataset.ObjectID // the published key map, read-only here
	moved map[uint64]dataset.ObjectID // keys this pass (re)placed, or deleted: noObject
}

func newStage(base *Generation, byKey map[uint64]dataset.ObjectID, ops int) *stage {
	ds := base.Eng.DS
	n := ds.Len()
	st := &stage{
		name:  ds.Name,
		objs:  append(make([]dataset.Object, 0, n+ops), ds.Objects...),
		keys:  append(make([]uint64, 0, n+ops), base.Keys...),
		tree:  base.Eng.Tree.Edit(),
		inv:   base.Eng.Inv.Edit(),
		vocab: ds.Vocab,
		byKey: byKey,
		moved: make(map[uint64]dataset.ObjectID, ops),
	}
	return st
}

// apply stages one validated op. A delete swap-removes: the last object
// moves into the freed slot, so objs stays exactly the live set.
func (st *stage) apply(op Op) {
	switch op.Kind {
	case OpInsert:
		id := dataset.ObjectID(len(st.objs))
		o := dataset.Object{ID: id, Loc: op.Loc, Keywords: st.intern(op.Words)}
		st.objs = append(st.objs, o)
		st.keys = append(st.keys, op.Key)
		st.moved[op.Key] = id
		st.tree.Insert(irtree.Entry{P: o.Loc, ID: uint32(id)})
		for _, kw := range o.Keywords {
			st.inv.Add(kw, id)
		}
	case OpDelete:
		id, last := st.lookup(op.Key), dataset.ObjectID(len(st.objs)-1)
		gone := st.objs[id]
		st.found(st.tree.Delete(gone.Loc, uint32(id)), op)
		for _, kw := range gone.Keywords {
			st.inv.Remove(kw, id)
		}
		if id != last {
			o := st.objs[last]
			st.found(st.tree.ReID(o.Loc, uint32(last), uint32(id)), op)
			for _, kw := range o.Keywords {
				st.inv.Remove(kw, last)
				st.inv.Add(kw, id)
			}
			o.ID = id
			st.objs[id], st.keys[id] = o, st.keys[last]
			st.moved[st.keys[id]] = id
		}
		st.objs, st.keys = st.objs[:last], st.keys[:last]
		st.moved[op.Key] = noObject
	case OpEdit:
		id := st.lookup(op.Key)
		o := &st.objs[id]
		kws := st.intern(op.Words)
		for _, kw := range o.Keywords.Subtract(kws) {
			st.inv.Remove(kw, id)
		}
		for _, kw := range kws.Subtract(o.Keywords) {
			st.inv.Add(kw, id)
		}
		o.Keywords = kws
		// The entry stays put; its path is cloned so the unions above it
		// are recomputed.
		st.found(st.tree.ReID(o.Loc, uint32(id), uint32(id)), op)
	}
}

// lookup resolves a live key: ApplyBatch validated every op against the
// same logical state this pass replays.
func (st *stage) lookup(key uint64) dataset.ObjectID {
	if id, ok := st.moved[key]; ok {
		return id
	}
	return st.byKey[key]
}

// found panics when the tree lost an object the tables hold — a state only
// a bug in the editors can produce.
func (st *stage) found(ok bool, op Op) {
	if !ok {
		panic(fmt.Sprintf("epoch: %s of key %d: object missing from the tree", op.Kind, op.Key))
	}
}

// intern resolves words in the stage's vocabulary, cloning it first when
// a word is new (or retired) — ids are stable, so shared tree unions and
// posting lists keep their meaning.
func (st *stage) intern(words []string) kwds.Set {
	var buf [8]kwds.ID
	ids := buf[:0]
	for _, w := range words {
		id, ok := st.vocab.Lookup(w)
		if !ok {
			id = st.ownVocab().Intern(w)
		}
		ids = append(ids, id)
	}
	return kwds.NewSet(ids...)
}

func (st *stage) ownVocab() *kwds.Vocabulary {
	if !st.owned {
		st.vocab, st.owned = st.vocab.Clone(), true
	}
	return st.vocab
}

// finish retires every word whose last carrier this pass removed — it is
// unknown again, as it would be to an index built from the live set — and
// returns the staged dataset and postings with the count of posting lists
// the pass copied.
func (st *stage) finish() (*dataset.Dataset, *invindex.Index, int) {
	touched := st.inv.Touched()
	for _, kw := range touched {
		if st.inv.Frequency(kw) > 0 {
			continue
		}
		if _, known := st.vocab.Lookup(st.vocab.Word(kw)); known {
			st.ownVocab().Retire(kw)
		}
	}
	ds := &dataset.Dataset{Name: st.name, Objects: st.objs, Vocab: st.vocab}
	return ds, st.inv.Done(), len(touched)
}

// signalLocked wakes every WaitIdle. Callers hold s.mu.
func (s *Store) signalLocked() {
	close(s.commit)
	s.commit = make(chan struct{})
}

// WaitIdle blocks until every accepted op has been applied (the
// pending queue is empty), the store is closed with ops still pending
// (ErrClosed), or ctx expires. Test and benchmark helper.
func (s *Store) WaitIdle(ctx context.Context) error {
	for {
		s.mu.Lock()
		idle, closed, commit := s.pendingOps == 0, s.closed, s.commit
		s.mu.Unlock()
		switch {
		case idle:
			return nil
		case closed:
			return ErrClosed
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-commit:
		}
	}
}

// seqLRU is the bounded idempotency-token table: token → recorded
// statuses, evicting least-recently-used. Guarded by the store mutex.
type seqLRU struct {
	cap  int
	m    map[string]*seqNode
	head *seqNode // most recent
	tail *seqNode
}

type seqNode struct {
	key        string
	st         []ItemStatus
	prev, next *seqNode
}

func newSeqLRU(cap int) *seqLRU {
	return &seqLRU{cap: cap, m: make(map[string]*seqNode, cap)}
}

func (l *seqLRU) get(key string) ([]ItemStatus, bool) {
	n, ok := l.m[key]
	if !ok {
		return nil, false
	}
	l.unlink(n)
	l.pushFront(n)
	return n.st, true
}

func (l *seqLRU) put(key string, st []ItemStatus) {
	if n, ok := l.m[key]; ok {
		n.st = st
		l.unlink(n)
		l.pushFront(n)
		return
	}
	n := &seqNode{key: key, st: st}
	l.m[key] = n
	l.pushFront(n)
	for len(l.m) > l.cap {
		ev := l.tail
		l.unlink(ev)
		delete(l.m, ev.key)
	}
}

func (l *seqLRU) pushFront(n *seqNode) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *seqLRU) unlink(n *seqNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
