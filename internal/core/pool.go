package core

// Scratch for the exact-search hot paths. One CoSKQ execution
// materializes a candidate pool, per-keyword candidate index slices and
// partial-set scratch; they are value fields of the pooled search
// (search.go), so they recycle with it and the steady-state per-query
// allocation count stays small and flat (pinned by TestOwnerExactAllocs).
// Parked scratch keeps what it last held: ids, locations and pool
// indices, never an object pointer, so a parked search pins no dataset.

import "coskq/internal/dataset"

// ownerScratch bundles the owner-driven search's reusable slices: the
// ascending-distance candidate pool, the per-keyword-bit candidate index
// (bits), and the cover enumeration's partial-set scratch. The search's
// own is the candidate stream's (ownerEnum); nearestOwner builds each
// owner's pool in its sub; pairsExact uses region/ichosen for its
// per-triple enumeration; Cao-Exact fills pool and bits from its keyword
// streams and walks them with chosen.
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
