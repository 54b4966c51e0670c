package core

// Scratch for the exact-search hot paths. One CoSKQ execution
// materializes a candidate pool, per-keyword candidate index slices and
// partial-set scratch; they are value fields of the pooled search
// (search.go), so they recycle with it and the steady-state per-query
// allocation count stays small and flat (pinned by TestOwnerExactAllocs).
//
// Parked scratch keeps what it last held. The owner-driven slices hold
// ids and locations only, but Cao-Exact's lists hold *dataset.Object
// pointers: a parked search can pin objects of a dataset no engine serves
// any more — a live store's retired generation (internal/epoch) — until
// a later Cao-Exact run overwrites them or the pool drops the search at
// a garbage collection.

import "coskq/internal/dataset"

// ownerScratch bundles the owner-driven search's reusable slices: the
// ascending-distance candidate pool, the per-keyword-bit candidate index
// (bits), and the cover enumeration's partial-set scratch. The search's
// own is the candidate stream's (ownerEnum); nearestOwner builds each
// owner's pool in its sub; pairsExact uses region/ichosen for its
// per-triple enumeration.
type ownerScratch struct {
	pool    []cand
	bits    [][]int32
	chosen  []int32
	bestSet []dataset.ObjectID
	region  []int
	ichosen []int
}

// ensureBits returns bits resized to n empty per-bit slices, keeping
// grown capacity.
func (s *ownerScratch) ensureBits(n int) [][]int32 {
	if cap(s.bits) < n {
		s.bits = make([][]int32, n)
	}
	s.bits = s.bits[:n]
	for b := range s.bits {
		s.bits[b] = s.bits[b][:0]
	}
	return s.bits
}

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
