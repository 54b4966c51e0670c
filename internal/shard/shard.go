// Package shard scales CoSKQ serving horizontally: a Partitioner splits a
// dataset into spatial shards, each served from its own dataset and
// posting lists (in-process, or by a remote coskq-server), and a Router
// answers queries by distance-bounded scatter-gather.
//
// The correctness core is the gather bound. For every cost function the
// engine supports, each member o of an optimal set S* satisfies
// d(o, q) ≤ cost(S*) ≤ U, where U is the cost of the nearest-neighbor
// set N(q) (DESIGN.md §12 derives the per-cost inequalities). The router
// therefore (1) merges per-keyword nearest neighbors across shards into
// N(q) and its cost U, (2) prunes shards whose keyword summary cannot
// intersect the query or whose MBR lies entirely outside the disk
// C(q, U), (3) gathers every relevant object within U from the surviving
// shards, and (4) runs the requested algorithm on the gathered pool.
// The optimum over the pool equals the global optimum, so exact methods
// return exactly the single-engine answer, and approximation methods
// keep their proven ratios (the pool is itself a feasible dataset).
//
// The currency of the data plane is the coverage mask, and its access
// path is the inverted index. The search only ever asks an object which
// of the query's keywords it covers, so a shard answers with
// Candidate.Mask — bit i ⇔ the object contains ShardQuery.Words[i] — and
// the router merges masks, checks coverage by OR-ing them, and solves the
// candidates in place as a core.Pool: sorted once by distance, with the
// masks as its only text. EngineBackend computes the masks by scanning
// the posting lists of the query words it knows (a probe or a gather is
// textually selective and spatially wide, the opposite of what a disk
// walk of the IR-tree is good at), so no routed query walks or builds an
// IR-tree at all. Keyword strings are materialized only where
// they leave the process: on the /shard/* wire, which carries full keyword
// lists (HTTPBackend derives each mask from them), and for the at most
// |q.ψ| members of an Answer (Hydrator).
package shard

import (
	"cmp"
	"context"
	"encoding/hex"
	"fmt"
	"slices"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/invindex"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// SummaryWords is the fixed width of a keyword Summary in 64-bit words
// (4096 bits). Fixed width keeps summaries comparable across shards with
// different vocabularies — the wire form of the HTTP scatter-gather mode.
const SummaryWords = 64

// Summary is a Bloom-style one-hash bitset over a shard's keyword
// strings. Hashing the strings (not vocabulary ids) keeps summaries
// consistent across shards that interned their vocabularies
// independently. A set bit may be a false positive — the router then
// merely skips a prune — but a clear bit proves the word absent, so
// pruning on it is always safe.
type Summary [SummaryWords]uint64

func summaryBit(word string) (int, uint64) {
	// FNV-1a, inlined to avoid per-word allocations.
	h := uint64(14695981039346656037)
	for i := 0; i < len(word); i++ {
		h ^= uint64(word[i])
		h *= 1099511628211
	}
	bit := h % (SummaryWords * 64)
	return int(bit / 64), 1 << (bit % 64)
}

// Add marks word as present.
func (s *Summary) Add(word string) {
	w, m := summaryBit(word)
	s[w] |= m
}

// Might reports whether word may be present (false positives possible,
// false negatives not).
func (s *Summary) Might(word string) bool {
	w, m := summaryBit(word)
	return s[w]&m != 0
}

// MightAny reports whether any of words may be present.
func (s *Summary) MightAny(words []string) bool {
	for _, w := range words {
		if s.Might(w) {
			return true
		}
	}
	return false
}

// Encode returns the hex wire form of the summary.
func (s *Summary) Encode() string {
	var buf [SummaryWords * 8]byte
	for i, w := range s {
		for j := 0; j < 8; j++ {
			buf[i*8+j] = byte(w >> (8 * j))
		}
	}
	return hex.EncodeToString(buf[:])
}

// DecodeSummary parses the hex wire form produced by Encode.
func DecodeSummary(h string) (Summary, error) {
	var s Summary
	raw, err := hex.DecodeString(h)
	if err != nil {
		return s, fmt.Errorf("shard: decode summary: %w", err)
	}
	if len(raw) != SummaryWords*8 {
		return s, fmt.Errorf("shard: decode summary: %d bytes, want %d", len(raw), SummaryWords*8)
	}
	for i := range s {
		var w uint64
		for j := 7; j >= 0; j-- {
			w = w<<8 | uint64(raw[i*8+j])
		}
		s[i] = w
	}
	return s, nil
}

// SummaryOf builds the keyword summary of a dataset.
func SummaryOf(ds *dataset.Dataset) Summary {
	var s Summary
	for i := range ds.Objects {
		for _, id := range ds.Objects[i].Keywords {
			s.Add(ds.Vocab.Word(id))
		}
	}
	return s
}

// Meta is a shard's routing summary: enough for the router to prune the
// shard without calling it. Gen is the index generation the summary
// describes — 0 for static shards, the epoch generation for live ones.
type Meta struct {
	Name    string
	Objects int
	MBR     geo.Rect
	Summary Summary
	Gen     uint64
}

// ShardQuery is the query a Backend call receives. Keywords travel as
// strings so shards with independently interned vocabularies (the HTTP
// mode) resolve them against their own vocabulary; unknown words are
// simply not found, never an error. The position of a word in Words is
// its bit in every Candidate.Mask the call returns, so a query carries at
// most kwds.MaxQueryKeywords words.
type ShardQuery struct {
	Loc   geo.Point
	Words []string
}

// Candidate is one object surfaced by a shard. GID is the object's
// global id for in-process backends (the partitioner records the
// mapping); HTTP backends report shard-local ids, unique only within
// (Shard, GID).
//
// Mask is the object's coverage of the query that surfaced it: bit i is
// set exactly when the object contains ShardQuery.Words[i]. It is all
// the router's merge and pool solve read. Words, the object's full
// keyword set as strings, is filled only where strings leave the process:
// an HTTPBackend decodes it off the wire, while an EngineBackend leaves
// it nil until Hydrate is called — by the /shard/* encoders for every
// candidate, and by the Router for the ≤ |q.ψ| members of an answer.
type Candidate struct {
	GID   dataset.ObjectID
	local dataset.ObjectID // EngineBackend's own id for GID, what Hydrate reads
	Shard int
	Loc   geo.Point
	Mask  kwds.Mask
	Words []string
}

// Hydrator is an optional Backend capability: filling in the Words of a
// candidate the same backend returned with Words nil. A backend wrapped
// in a type that hides it yields answer members without keyword strings.
type Hydrator interface {
	Hydrate(c *Candidate)
}

// NNHit is a per-query-keyword nearest-neighbor answer from one shard.
// A missing keyword leaves Found false.
type NNHit struct {
	Found bool
	Dist  float64
	Cand  Candidate
}

// NNResult is one shard's answer to an NN scatter: the per-keyword hits
// plus the generation header of the index that produced them. Static
// shards always report Gen 0; live (epoch-backed) shards report their
// pinned generation, and the router uses the header to detect a scatter
// whose NN and Collect phases saw different generations of the same
// shard — a torn scatter it retries rather than merges.
type NNResult struct {
	Gen  uint64
	Hits []NNHit
}

// CollectResult is one shard's answer to a Collect scatter, with the
// same generation header contract as NNResult.
type CollectResult struct {
	Gen     uint64
	Objects []Candidate
}

// MetricsFetcher is an optional Backend capability: fetching the
// shard's own /metrics text exposition so the coordinator can serve a
// federated, cluster-wide page (/metrics?federate=1). HTTP backends
// implement it; in-process backends don't need to — they share the
// coordinator's registry.
type MetricsFetcher interface {
	FetchMetrics(ctx context.Context) ([]byte, error)
}

// Backend is one shard as the Router sees it: a routing summary, a
// per-keyword nearest-neighbor probe, and a bounded relevant-object
// gather. Implementations must be safe for concurrent calls.
//
// Every call honours ctx: once ctx is done it returns promptly with
// ctx.Err() (EngineBackend polls it between postings, HTTPBackend's
// client aborts the request). The router runs each call on the
// goroutine that scatters it and enforces Router.ShardTimeout only
// through ctx, so a backend that ignored ctx would hold the query past
// its deadline.
//
// Backends observe the trace carried by ctx (trace.FromContext): a
// traced call records its shard-local search anatomy into it — the
// router hands each call a private trace and grafts the exports once
// the calls have returned, so concurrent backends never share one. With
// no trace in ctx the instrumentation is nil-safe branch-only code that
// never allocates.
type Backend interface {
	// Name identifies the shard in errors and metrics labels.
	Name() string
	// Meta returns the shard's routing summary.
	Meta(ctx context.Context) (Meta, error)
	// NN returns, for each query word, the shard's nearest object
	// containing it (lowest id among equidistant ones), with the object's
	// Mask over all of q.Words. The result's Hits slice has len(q.Words)
	// entries; Gen is the generation header described on NNResult.
	NN(ctx context.Context, q ShardQuery) (NNResult, error)
	// Collect returns every object within radius of q.Loc sharing at
	// least one keyword with q.Words, each with its Mask, in ascending
	// id, under the same generation-header contract as NN. "Within" is
	// geo.Circle.ContainsPoint, which tolerates one ulp of rounding on the
	// boundary; more candidates never hurt the gather bound.
	Collect(ctx context.Context, q ShardQuery, radius float64) (CollectResult, error)
}

// EngineBackend serves one in-process shard from the two things the data
// plane reads: the shard's dataset and its posting lists. It holds no
// IR-tree — NN and Collect never walk one. An empty shard needs no special
// case: its posting lists are empty, so every call answers with no hits.
type EngineBackend struct {
	// GIDs maps the shard dataset's dense local object ids to global ids
	// in the original dataset; nil means the identity mapping.
	GIDs []dataset.ObjectID

	ds   *dataset.Dataset
	inv  *invindex.Index
	name string
	meta Meta
}

// NewEngineBackend builds the posting lists of sh and returns its backend.
func NewEngineBackend(name string, sh Shard) *EngineBackend {
	b := WrapEngine(name, sh.DS, invindex.Build(sh.DS))
	b.GIDs = sh.GlobalIDs
	return b
}

// WrapEngine exposes an already-indexed dataset — an engine's DS and Inv —
// as a shard backend with the identity id mapping: how a coskq-server
// serves its own dataset as one shard of a fleet. inv must be built over
// ds.
func WrapEngine(name string, ds *dataset.Dataset, inv *invindex.Index) *EngineBackend {
	return &EngineBackend{
		ds: ds, inv: inv, name: name,
		meta: Meta{Name: name, Objects: ds.Len(), MBR: ds.MBR(), Summary: SummaryOf(ds)},
	}
}

// Name implements Backend.
func (b *EngineBackend) Name() string { return b.name }

// Meta implements Backend.
func (b *EngineBackend) Meta(ctx context.Context) (Meta, error) { return b.meta, nil }

func (b *EngineBackend) global(id dataset.ObjectID) dataset.ObjectID {
	if b.GIDs == nil {
		return id
	}
	return b.GIDs[id]
}

// candidate surfaces the shard object id with the given coverage mask.
func (b *EngineBackend) candidate(id dataset.ObjectID, mask kwds.Mask) Candidate {
	return Candidate{GID: b.global(id), local: id, Loc: b.ds.Objects[id].Loc, Mask: mask}
}

// Hydrate implements Hydrator: it materializes the keyword strings of a
// candidate this backend returned.
func (b *EngineBackend) Hydrate(c *Candidate) {
	o := b.ds.Object(c.local)
	c.Words = make([]string, o.Keywords.Len())
	for i, kid := range o.Keywords {
		c.Words[i] = b.ds.Vocab.Word(kid)
	}
}

// checkWords rejects a query whose words outnumber the bits of a Mask:
// 1 << 64 is 0 in Go, so an unchecked 65th word would silently drop out
// of every mask instead of failing.
func checkWords(q ShardQuery) error {
	if len(q.Words) > kwds.MaxQueryKeywords {
		return fmt.Errorf("shard: %w (%d given)", core.ErrTooManyKeywords, len(q.Words))
	}
	return nil
}

// cancelPollMask downsamples the context checks of the posting scans:
// NN and Collect poll ctx on entry and then once every cancelPollMask+1
// postings, so a call ends within a few hundred distance tests of its
// deadline.
const cancelPollMask = 255

// NN implements Backend with one scan of each known word's posting list:
// a probe is textually selective and spatially unbounded, which is the
// shape an inverted list serves with less work than a best-first IR-tree
// descent. A static backend is always generation 0.
func (b *EngineBackend) NN(ctx context.Context, q ShardQuery) (NNResult, error) {
	if err := checkWords(q); err != nil {
		return NNResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return NNResult{}, err
	}
	tr := trace.FromContext(ctx)
	sp := tr.Begin("nn_probes")
	defer sp.End()
	hits := make([]NNHit, len(q.Words))
	ds := b.ds
	// ids[i] is the shard's id of q.Words[i] where known has bit i set.
	var ids [kwds.MaxQueryKeywords]kwds.ID
	var known kwds.Mask
	for i, w := range q.Words {
		if kw, ok := ds.Vocab.Lookup(w); ok {
			ids[i], known = kw, known|1<<uint(i)
		}
	}
	found, scanned := 0, 0
	for i := range q.Words {
		var post []dataset.ObjectID
		if known&(1<<uint(i)) != 0 {
			post = b.inv.Postings(ids[i])
		}
		if len(post) == 0 {
			continue
		}
		ps := tr.Begin("probe")
		ps.Attr("kw", float64(i))
		// Postings ascend by id, so strict < keeps the lowest id on ties.
		best, bestD := post[0], q.Loc.Dist(ds.Objects[post[0]].Loc)
		for _, id := range post[1:] {
			if scanned++; scanned&cancelPollMask == 0 {
				if err := ctx.Err(); err != nil {
					ps.End()
					return NNResult{}, err
				}
			}
			if d := q.Loc.Dist(ds.Objects[id].Loc); d < bestD {
				best, bestD = id, d
			}
		}
		found++
		ps.Attr("dist", bestD)
		ps.End()
		var mask kwds.Mask
		for j := range q.Words {
			if known&(1<<uint(j)) != 0 && ds.Objects[best].Keywords.Contains(ids[j]) {
				mask |= 1 << uint(j)
			}
		}
		hits[i] = NNHit{Found: true, Dist: bestD, Cand: b.candidate(best, mask)}
	}
	sp.Attr("keywords", float64(len(q.Words)))
	sp.Attr("found", float64(found))
	return NNResult{Hits: hits}, nil
}

// maskedID is one posting that fell inside the gather disk.
type maskedID struct {
	id  dataset.ObjectID
	bit kwds.Mask
}

// Collect implements Backend from the posting lists of the query words
// the shard knows: every posting is tested against the disk, the
// survivors are sorted by object id, and equal ids merge by OR-ing their
// bits — so candidates come out in ascending id with complete masks, and
// the work is proportional to the words' frequencies, not to the number
// of objects the disk holds. A static backend is always generation 0.
func (b *EngineBackend) Collect(ctx context.Context, q ShardQuery, radius float64) (CollectResult, error) {
	if err := checkWords(q); err != nil {
		return CollectResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return CollectResult{}, err
	}
	tr := trace.FromContext(ctx)
	sp := tr.Begin("collect_scan")
	defer sp.End()
	sp.Attr("radius", radius)
	ds := b.ds
	disk := geo.Circle{C: q.Loc, R: radius}
	in := make([]maskedID, 0, 64) // stays on the stack for the common small gather
	scanned := 0
	for i, w := range q.Words {
		kw, ok := ds.Vocab.Lookup(w)
		if !ok {
			continue
		}
		for _, id := range b.inv.Postings(kw) {
			if scanned++; scanned&cancelPollMask == 0 {
				if err := ctx.Err(); err != nil {
					return CollectResult{}, err
				}
			}
			if disk.ContainsPoint(ds.Objects[id].Loc) {
				in = append(in, maskedID{id: id, bit: 1 << uint(i)})
			}
		}
	}
	slices.SortFunc(in, func(a, b maskedID) int { return cmp.Compare(a.id, b.id) })
	out := make([]Candidate, 0, len(in))
	for _, p := range in {
		if n := len(out); n > 0 && out[n-1].local == p.id {
			out[n-1].Mask |= p.bit
			continue
		}
		out = append(out, b.candidate(p.id, p.bit))
	}
	sp.Attr("objects", float64(len(out)))
	return CollectResult{Objects: out}, nil
}
