package core

// Cross-query keyword-NN cache (DESIGN.md §15). The per-query nnMemo
// (search.go) dies with its query; under production traffic most queries
// repeat hot locations and keyword combinations, so the same IR-tree NN
// walks run over and over. NNCache promotes the memo into a bounded,
// sharded LRU keyed by (grid cell, keyword ID) — on the Engine, or private
// to one batch when the engine has none (batch.go) — with a
// distance-validity radius making every reuse provably exact:
//
// An entry records the observation point p0, the NN o1 of p0 for keyword
// kw, its distance d1 = d(p0, o1), and the distance d2 of the
// SECOND-nearest object containing kw (irtree.NN2). For a later probe
// point p with δ = d(p, p0), the cached answer is reused only when
//
//	δ == 0  (the probe repeats the observation point exactly), or
//	2δ < d2 − d1  (the validity radius).
//
// Proof sketch of the radius rule: d(p, o1) ≤ d1 + δ by the triangle
// inequality, and every other object o containing kw has
// d(p, o) ≥ d(p0, o) − δ ≥ d2 − δ. If 2δ < d2 − d1 then
// d2 − δ > d1 + δ ≥ d(p, o1), so o1 is the STRICTLY unique keyword NN of
// p — independent of how the tree search would break ties — and the
// distance returned, d(p, o1.Loc), is bit-identical to what Tree.NN(p)
// would compute. When d2 = +Inf (the keyword appears in exactly one
// object) the rule always passes, which is exact: the only candidate is
// the NN everywhere. Negative entries (ok = false: the keyword appears
// in no object) are valid for every probe point because the dataset is
// immutable. Cache-on and cache-off runs therefore return bit-identical
// results unconditionally.

import (
	"math"
	"sync"

	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/metrics"
)

// nnCacheShards fixes the lock striping of the cache. Sixteen shards keep
// contention negligible at batch worker counts while the per-shard LRU
// list stays a handful of pointers.
const nnCacheShards = 16

// nnCacheKey addresses one cache slot: the grid cell of the observation
// point and the keyword.
type nnCacheKey struct {
	cx, cy int32
	kw     kwds.ID
}

// nnCacheEntry is one cached observation, threaded on its shard's
// intrusive LRU list (MRU at head). The list is hand-rolled rather than
// container/list so a hit is pure pointer surgery and never allocates
// (the batched-path alloc guard pins this).
type nnCacheEntry struct {
	key        nnCacheKey
	p          geo.Point        // observation point p0
	id         dataset.ObjectID // NN of p0 for key.kw
	loc        geo.Point        // location of id
	d1, d2     float64          // NN and second-NN distances from p0
	ok         bool             // false: keyword appears in no object
	prev, next *nnCacheEntry
}

// nnCacheShard is one lock stripe: a map from key to entry plus the
// shard-local LRU list.
type nnCacheShard struct {
	mu         sync.Mutex
	m          map[nnCacheKey]*nnCacheEntry
	head, tail *nnCacheEntry
}

// NNCache is the engine-level cross-query keyword-NN cache. Construct
// via Engine.EnableNNCache; safe for concurrent use.
type NNCache struct {
	originX, originY float64
	invCell          float64 // 1 / cell side length
	perShard         int     // entry capacity per shard
	shards           [nnCacheShards]nnCacheShard

	hits      *metrics.Counter // coskq_nncache_hits_total
	misses    *metrics.Counter // coskq_nncache_misses_total
	evictions *metrics.Counter // coskq_nncache_evictions_total
}

// newNNCache builds a cache over the dataset extent mbr with the given
// total entry capacity (minimum one entry per shard). The cell side is
// the larger MBR extent divided by 256 — fine enough that hot locations
// in different neighborhoods do not evict each other, coarse enough that
// jittered repeats of one hot location share a cell. The hit/miss/eviction
// counters register in reg (coskq_nncache_*) or, with reg nil, count
// privately.
func newNNCache(mbr geo.Rect, capacity int, reg *metrics.Registry) *NNCache {
	side := math.Max(mbr.Width(), mbr.Height()) / 256
	if side <= 0 {
		side = 1
	}
	per := capacity / nnCacheShards
	if per < 1 {
		per = 1
	}
	c := &NNCache{
		originX:  mbr.MinX,
		originY:  mbr.MinY,
		invCell:  1 / side,
		perShard: per,
	}
	for i := range c.shards {
		c.shards[i].m = make(map[nnCacheKey]*nnCacheEntry, per)
	}
	if reg != nil {
		c.hits = reg.Counter("coskq_nncache_hits_total")
		c.misses = reg.Counter("coskq_nncache_misses_total")
		c.evictions = reg.Counter("coskq_nncache_evictions_total")
	} else {
		c.hits = new(metrics.Counter)
		c.misses = new(metrics.Counter)
		c.evictions = new(metrics.Counter)
	}
	return c
}

// EnableNNCache attaches a cross-query keyword-NN cache holding up to
// capacity entries to the engine and returns it. When the engine has a
// metrics sink the cache's hit/miss/eviction counters are registered in
// the sink's registry (coskq_nncache_*); otherwise they count privately.
// Call before issuing queries (the field is not synchronized); capacity
// ≤ 0 leaves the engine uncached and returns nil.
func (e *Engine) EnableNNCache(capacity int) *NNCache {
	if capacity <= 0 {
		e.NNCache = nil
		return nil
	}
	var reg *metrics.Registry
	if e.Metrics != nil {
		reg = e.Metrics.Registry()
	}
	e.NNCache = newNNCache(e.DS.MBR(), capacity, reg)
	return e.NNCache
}

// Capacity returns the total entry capacity the cache was built with
// (rounded up to one entry per shard). The live store uses it to size a
// fresh cache for each generation it derives.
func (c *NNCache) Capacity() int { return c.perShard * nnCacheShards }

// Hits returns the cumulative number of validated cache hits.
func (c *NNCache) Hits() uint64 { return c.hits.Value() }

// Misses returns the cumulative number of lookups that found no valid
// entry.
func (c *NNCache) Misses() uint64 { return c.misses.Value() }

// Evictions returns the cumulative number of LRU evictions.
func (c *NNCache) Evictions() uint64 { return c.evictions.Value() }

// Len returns the current number of cached entries (for tests).
func (c *NNCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// key maps a point to its cache key. Coordinates are clamped into int32
// so far-out probe points still key deterministically.
func (c *NNCache) key(p geo.Point, kw kwds.ID) nnCacheKey {
	return nnCacheKey{
		cx: clampCell((p.X - c.originX) * c.invCell),
		cy: clampCell((p.Y - c.originY) * c.invCell),
		kw: kw,
	}
}

func clampCell(v float64) int32 {
	if v < math.MinInt32 {
		return math.MinInt32
	}
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(v)
}

// shardOf picks the lock stripe for a key (splitmix64 finalizer over the
// packed cell coordinates and keyword).
func shardOf(k nnCacheKey) uint32 {
	z := uint64(uint32(k.cx))<<32 | uint64(uint32(k.cy))
	z ^= uint64(k.kw) * 0x9e3779b97f4a7c15
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return uint32(z % nnCacheShards)
}

// Lookup consults the cache for the keyword NN of p. hit reports whether
// a provably-valid entry answered; on a hit, (id, d, ok) is bit-identical
// to what Tree.NN(p, kw) would return. A hit never allocates.
func (c *NNCache) Lookup(p geo.Point, kw kwds.ID) (id dataset.ObjectID, d float64, ok, hit bool) {
	k := c.key(p, kw)
	s := &c.shards[shardOf(k)]
	s.mu.Lock()
	e := s.m[k]
	if e == nil {
		s.mu.Unlock()
		c.misses.Inc()
		return 0, 0, false, false
	}
	if !e.ok {
		// Negative entry: the keyword appears nowhere; valid for every p.
		s.moveFront(e)
		s.mu.Unlock()
		c.hits.Inc()
		return 0, 0, false, true
	}
	delta := p.Dist(e.p)
	switch {
	case delta == 0:
		id, d, ok = e.id, e.d1, true
	case 2*delta < e.d2-e.d1:
		id, d, ok = e.id, p.Dist(e.loc), true
	default:
		s.mu.Unlock()
		c.misses.Inc()
		return 0, 0, false, false
	}
	s.moveFront(e)
	s.mu.Unlock()
	c.hits.Inc()
	return id, d, ok, true
}

// Store records one NN2 observation made at p: the NN id at loc with
// distance d1, the second-NN distance d2, or a negative entry when
// ok = false. An existing entry for the same cell/keyword is overwritten
// in place (the newer observation point serves later probes in this
// cell); a full shard evicts its LRU tail.
func (c *NNCache) Store(p geo.Point, kw kwds.ID, id dataset.ObjectID, loc geo.Point, d1, d2 float64, ok bool) {
	k := c.key(p, kw)
	s := &c.shards[shardOf(k)]
	s.mu.Lock()
	if e := s.m[k]; e != nil {
		e.p, e.id, e.loc, e.d1, e.d2, e.ok = p, id, loc, d1, d2, ok
		s.moveFront(e)
		s.mu.Unlock()
		return
	}
	evicted := false
	if len(s.m) >= c.perShard {
		if t := s.tail; t != nil {
			s.unlink(t)
			delete(s.m, t.key)
			evicted = true
		}
	}
	e := &nnCacheEntry{key: k, p: p, id: id, loc: loc, d1: d1, d2: d2, ok: ok}
	s.m[k] = e
	s.pushFront(e)
	s.mu.Unlock()
	if evicted {
		c.evictions.Inc()
	}
}

// pushFront links e at the MRU head. Caller holds the shard lock.
func (s *nnCacheShard) pushFront(e *nnCacheEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// unlink removes e from the list. Caller holds the shard lock.
func (s *nnCacheShard) unlink(e *nnCacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveFront promotes e to the MRU head. Caller holds the shard lock.
func (s *nnCacheShard) moveFront(e *nnCacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
