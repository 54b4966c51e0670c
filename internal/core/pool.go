package core

// Pooled scratch for the exact-search hot paths (the per-call state
// itself is the pooled search, search.go). One CoSKQ execution
// materializes a candidate pool, per-keyword candidate index slices and
// partial-set scratch; recycling them through sync.Pool makes
// the steady-state per-query allocation count small and flat (pinned by
// TestOwnerExactAllocs). Pooled objects may retain *dataset.Object
// pointers between queries; engines own their datasets for their entire
// lifetime, so this pins no memory that was going away.

import (
	"sync"

	"coskq/internal/dataset"
)

// ownerScratch bundles the owner-driven search's reusable slices: the
// ascending-distance candidate pool, the per-keyword-bit candidate index
// (bitCands), and the cover enumeration's partial-set scratch. nearestOwner
// takes a second one for each owner's pool; pairsExact uses region/ichosen
// for its per-triple enumeration.
type ownerScratch struct {
	pool     []cand
	bitCands [][]int32
	chosen   []int32
	bestSet  []dataset.ObjectID
	region   []int
	ichosen  []int
}

// ensureBits returns bitCands resized to n empty per-bit slices, keeping
// grown capacity.
func (s *ownerScratch) ensureBits(n int) [][]int32 {
	if cap(s.bitCands) < n {
		s.bitCands = make([][]int32, n)
	}
	s.bitCands = s.bitCands[:n]
	for b := range s.bitCands {
		s.bitCands[b] = s.bitCands[b][:0]
	}
	return s.bitCands
}

var ownerScratchPool = sync.Pool{New: func() any { return new(ownerScratch) }}

func getOwnerScratch() *ownerScratch { return ownerScratchPool.Get().(*ownerScratch) }

// putOwnerScratch returns s to the pool. Callers must be done with every
// slice handed out of s before releasing it.
func putOwnerScratch(s *ownerScratch) { ownerScratchPool.Put(s) }

// caoScratch bundles Cao-Exact's reusable slices: the per-keyword
// materialized candidate lists and the branch-and-bound partial set.
type caoScratch struct {
	cands     [][]kwCand
	chosen    []*dataset.Object
	chosenIDs []dataset.ObjectID
}

// ensureCands returns cands resized to n empty per-keyword lists,
// keeping grown capacity.
func (s *caoScratch) ensureCands(n int) [][]kwCand {
	if cap(s.cands) < n {
		s.cands = make([][]kwCand, n)
	}
	s.cands = s.cands[:n]
	for b := range s.cands {
		s.cands[b] = s.cands[b][:0]
	}
	return s.cands
}

var caoScratchPool = sync.Pool{New: func() any { return new(caoScratch) }}

func getCaoScratch() *caoScratch  { return caoScratchPool.Get().(*caoScratch) }
func putCaoScratch(s *caoScratch) { caoScratchPool.Put(s) }
