// Fixture for the epochpin analyzer, mirroring the epoch store's
// snapshot idioms: the Pin/Unpin refcount pair, deferred releases, and
// the handle-transfer shapes the server layer uses (returning the
// handle, returning its Unpin method value as a release func).
package epoch

type Engine struct{ objects int }

// Generation is a pinned snapshot handle: Pin bumps its refcount, Unpin
// drops it — the shape the analyzer matches structurally.
type Generation struct {
	Eng  *Engine
	Gen  uint64
	pins int
}

func (g *Generation) Unpin() { g.pins-- }

type Store struct{ cur *Generation }

func (s *Store) Pin() *Generation {
	g := s.cur
	g.pins++
	return g
}

func use(g *Generation) {}

// The canonical shape: deferred Unpin covers every path including
// panic-unwind.
func goodDefer(s *Store, cond bool) {
	g := s.Pin()
	defer g.Unpin()
	if cond {
		return
	}
	use(g)
}

// Unpin inside a deferred closure also counts.
func goodDeferredClosure(s *Store) {
	g := s.Pin()
	defer func() {
		use(g)
		g.Unpin()
	}()
	use(g)
}

// Straight-line Unpin with no intervening return is path-safe.
func goodStraightLine(s *Store) {
	g := s.Pin()
	use(g)
	g.Unpin()
}

// Returning the handle transfers the obligation to the caller.
func goodReturnHandle(s *Store) *Generation {
	g := s.Pin()
	return g
}

// The server's pinned() shape: the Unpin method value goes back to the
// caller as the release func, transferring the obligation.
func goodReturnRelease(s *Store) (*Engine, func()) {
	g := s.Pin()
	return g.Eng, g.Unpin
}

// Unpin on both arms of a branch discharges every path.
func goodBothArms(s *Store, cond bool) {
	g := s.Pin()
	if cond {
		use(g)
		g.Unpin()
		return
	}
	g.Unpin()
}

// Storing the handle into a struct hands it to the struct's owner.
type holder struct{ g *Generation }

func goodFieldStore(s *Store, h *holder) {
	g := s.Pin()
	h.g = g
}

// A pin with no holder can never be unpinned: the pinned-readers gauge
// counts it for ever.
func badDiscard(s *Store) {
	s.Pin() // want "pinned generation is discarded"
}

func badUnderscore(s *Store) {
	_ = s.Pin() // want "pinned generation is discarded"
}

// The early return skips the Unpin: the happy path balances, the guard
// path leaks.
func badEarlyReturn(s *Store, cond bool) {
	g := s.Pin() // want "not unpinned on all paths"
	if cond {
		return
	}
	g.Unpin()
}

// Reading a field off the handle is a borrow, not a transfer — the
// obligation stays here and this path never discharges it.
func badFieldRead(s *Store) *Engine {
	g := s.Pin() // want "not unpinned on all paths"
	eng := g.Eng
	_ = eng
	return nil
}

// A deliberately long-lived pin — a warm generation held for the
// process lifetime so a debug endpoint can always answer from it — is
// legal only with a justified suppression.
func suppressedLongLivedPin(s *Store) {
	g := s.Pin() //coskq:nolint(epochpin) process-lifetime pin: the debug snapshot is released by OS teardown, never explicitly
	use(g)
}
