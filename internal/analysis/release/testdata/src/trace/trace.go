// Fixture stand-in for coskq/internal/trace: just enough surface for the
// spanend analyzer to recognize Begin/End/Drop.
package trace

type Trace struct{ open int }

type Span struct{ t *Trace }

func (t *Trace) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	t.open++
	return &Span{t: t}
}

func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.open--
}

func (s *Span) Drop() {
	if s == nil {
		return
	}
	s.t.open--
}

func (s *Span) Attr(key string, v float64) {}

// Group mirrors the race-safe concurrent span group used by worker
// pools and the Router's scatter.
type Group struct{ t *Trace }

func (t *Trace) BeginGroup(name string) *Group {
	if t == nil {
		return nil
	}
	t.open++
	return &Group{t: t}
}

func (g *Group) Begin(name string) *Span {
	if g == nil {
		return nil
	}
	g.t.open++
	return &Span{t: g.t}
}

func (g *Group) End() {
	if g == nil {
		return
	}
	g.t.open--
}
