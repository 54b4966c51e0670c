// Fixture for the serving layer's per-request handle: the server wraps
// Store.Pin in its own Pin method returning a by-value handle (a no-op
// on a static server), so the handlers' pins match the same structural
// Pin/Unpin shape and are checked with no row of their own.
package epoch

type pin struct {
	eng *Engine
	g   *Generation // nil on a static server
}

func (p pin) Unpin() {
	if p.g != nil {
		p.g.Unpin()
	}
}

type server struct {
	eng   *Engine
	store *Store
}

// Pin hands the store's pin to the handle it returns: a transfer.
func (s *server) Pin() pin {
	if s.store == nil {
		return pin{eng: s.eng}
	}
	g := s.store.Pin()
	return pin{eng: g.Eng, g: g}
}

func serve(eng *Engine) int { return eng.objects }

// The handler shape: one deferred Unpin covers the bad-request return,
// the solve and a panic out of it.
func goodHandler(s *server, badRequest bool) int {
	p := s.Pin()
	defer p.Unpin()
	if badRequest {
		return 400
	}
	return serve(p.eng)
}

// A handler that releases by hand misses the bad-request return: on a
// live server every malformed request would strand a generation.
func badHandlerEarlyReturn(s *server, badRequest bool) int {
	p := s.Pin() // want "pinned generation p is not unpinned on all paths \\(missing Unpin before the return at line 50\\)"
	if badRequest {
		return 400
	}
	n := serve(p.eng)
	p.Unpin()
	return n
}

type statsBody struct {
	gen     uint64
	objects int
}

// Reading fields off the handle into a response literal is a borrow,
// not a store of the handle: the /stats shape still has to Unpin.
func badHandlerResponseLiteral(s *server, write func(statsBody)) {
	p := s.Pin() // want "pinned generation p is not unpinned on all paths"
	write(statsBody{gen: p.g.Gen, objects: serve(p.eng)})
}

// Handing back a bare release func hides the obligation from the
// caller's check — the shape the handle replaced. It still transfers.
func okReleaseFunc(s *server) (*Engine, func()) {
	p := s.Pin()
	return p.eng, p.Unpin
}
