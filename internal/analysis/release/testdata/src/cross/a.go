// Cross-row fixture: one function holds all three resources the engine
// pairs on a live read — a trace span, pooled scratch and a pinned
// generation — and leaks each on a different early return. Every
// diagnostic must come from its own row, under its own analyzer name.
package cross

import (
	"epoch"
	"sync"
	"trace"
)

type scratch struct{ buf []int }

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

func badThreeLeaks(tr *trace.Trace, st *epoch.Store, step int) int {
	sp := tr.Begin("live_read") // want `spanend: span sp is not closed on all paths \(missing End/Drop before the return at line 20\)`
	if step == 0 {
		return 0
	}
	s := scratchPool.Get().(*scratch) // want `poolscratch: pooled object s is not returned to the pool on all paths \(missing Put before the return at line 25\)`
	if step == 1 {
		sp.End()
		return 1
	}
	g := st.Pin() // want `epochpin: pinned generation g is not unpinned on all paths \(missing Unpin before the return at line 31\)`
	if step == 2 {
		sp.End()
		scratchPool.Put(s)
		return 2
	}
	n := len(s.buf) + int(g.Gen)
	g.Unpin()
	scratchPool.Put(s)
	sp.End()
	return n
}

// The same three resources, each released by defer: no row fires.
func goodThreeDefers(tr *trace.Trace, st *epoch.Store, early bool) int {
	sp := tr.Begin("live_read")
	defer sp.End()
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	g := st.Pin()
	defer g.Unpin()
	if early {
		return 0
	}
	return len(s.buf) + int(g.Gen)
}
