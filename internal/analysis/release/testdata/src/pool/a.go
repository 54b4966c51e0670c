// Fixture for the poolscratch analyzer, mirroring the engine's scratch
// pool idioms (getOwnerScratch/putOwnerScratch wrappers, deferred
// releases, escape-by-return acquirers).
package pool

import "sync"

type scratch struct{ buf []int }

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

// getScratch is an acquirer wrapper: it returns what it Gets, so the
// obligation transfers to the caller.
func getScratch() *scratch {
	return scratchPool.Get().(*scratch)
}

// getScratchInit acquires, resets, and hands off — also clean.
func getScratchInit() *scratch {
	s := scratchPool.Get().(*scratch)
	s.buf = s.buf[:0]
	return s
}

// putScratch is a releaser wrapper.
func putScratch(s *scratch) {
	if s != nil {
		scratchPool.Put(s)
	}
}

func use(s *scratch) { _ = s }

// The canonical shape: deferred release covers every path including
// panic-unwind.
func goodDefer(cond bool) {
	s := getScratch()
	defer putScratch(s)
	if cond {
		return
	}
	use(s)
}

// Release inside a deferred closure also counts (the exact.go shape).
func goodDeferredClosure() {
	s := getScratch()
	defer func() {
		use(s)
		putScratch(s)
	}()
	use(s)
}

// Straight-line Put with no intervening return is path-safe.
func goodStraightLine() {
	s := getScratch()
	use(s)
	scratchPool.Put(s)
}

// Storing the object into a struct transfers the obligation.
type holder struct{ s *scratch }

func goodFieldTransfer() *holder {
	h := &holder{}
	h.s = getScratch()
	return h
}

// nnShare mirrors the batch tier's pooled per-cluster scratch: a
// reslice-able observation list recycled across clusters.
type nnShare struct {
	obs []int
}

var nnSharePool = sync.Pool{New: func() interface{} { return new(nnShare) }}

// getNNShare is the acquirer: reset the list, hand off.
func getNNShare() *nnShare {
	s := nnSharePool.Get().(*nnShare)
	s.obs = s.obs[:0]
	return s
}

// putNNShare is the releaser.
func putNNShare(s *nnShare) {
	nnSharePool.Put(s)
}

// goodClusterSolve: the batch cluster-solve shape — acquire once per
// cluster, deferred release covers member-loop panics (budget unwind).
func goodClusterSolve(members []int) {
	share := getNNShare()
	defer putNNShare(share)
	for _, m := range members {
		share.obs = append(share.obs, m)
	}
}

// badClusterSolveEarlyReturn: bailing out of the cluster mid-loop
// without the deferred release leaks the share on the error path.
func badClusterSolveEarlyReturn(members []int) {
	share := getNNShare() // want "not returned to the pool on all paths"
	for _, m := range members {
		if m < 0 {
			return
		}
		share.obs = append(share.obs, m)
	}
	putNNShare(share)
}

// Field resets on the object do NOT discharge the obligation: this
// leaks on every path.
func badNoPut() {
	s := getScratch() // want "not returned to the pool on all paths"
	s.buf = s.buf[:0]
	use(s)
}

// An early return that skips the Put leaks on that path.
func badEarlyReturn(cond bool) {
	s := getScratch() // want "not returned to the pool on all paths"
	if cond {
		return
	}
	putScratch(s)
}

// A Get with no holder can never be balanced.
func badDiscard() {
	scratchPool.Get() // want "pooled object is discarded"
}

func badDiscardWrapper() {
	getScratch() // want "pooled object is discarded"
}

// Package-level escape: an untracked holder can see the object after
// it is recycled.
var leaked *scratch

func badEscapeGlobal() {
	s := getScratch()
	leaked = s // want "escapes to package-level leaked"
}

// Channel escape: same hazard, concurrent flavor.
func badEscapeChannel(ch chan *scratch) {
	s := getScratch()
	ch <- s // want "escapes into a channel"
}

// A justified suppression silences the leak report.
func suppressedLeak() {
	//coskq:nolint(poolscratch) intentional leak: warm-up path seeds the pool elsewhere
	s := getScratch()
	use(s)
}
