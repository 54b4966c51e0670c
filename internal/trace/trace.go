// Package trace provides per-query execution tracing for the CoSKQ
// engine: a Trace is a tree of timed phase spans (seed NN search,
// candidate materialization, owner loop, per-owner sub-searches) plus
// typed prune-reason counters, serializable to JSON for the server's
// EXPLAIN output and renderable as an indented tree for the CLIs.
//
// The design goal is zero cost when disabled. A Trace travels inside a
// context.Context (NewContext/FromContext); every method on *Trace and
// *Span is nil-safe, so instrumented code calls
//
//	sp := tr.Begin("owner_loop")
//	...
//	sp.End()
//
// unconditionally — with a nil Trace these are branch-only calls that
// never allocate. Callers must not pass allocating expressions (string
// concatenation, fmt.Sprintf) as arguments on hot paths; span names are
// compile-time literals.
//
// A Trace has one writer: the goroutine running its query. Work fanned
// out to other goroutines records into private traces of its own, which
// the owner grafts in (Trace.Graft) once the work has returned. The
// SlowLog (slowlog.go) that retains finished traces is lock-protected
// and safe to share.
package trace

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"
)

// PruneReason identifies one pruning rule of the search algorithms. The
// counters quantify what each rule kills — the per-phase effectiveness
// the paper's evaluation reasons about when comparing the owner-driven
// search against the Cao et al. baselines.
type PruneReason uint8

const (
	// PruneOwnerRing: a relevant object closer than d_f was skipped as a
	// query distance owner (it stays in the pool as a non-owner member).
	PruneOwnerRing PruneReason = iota
	// PruneIncumbentBreak: the ascending-distance enumeration stopped (or
	// skipped, under ablation) because d(o,q) reached the incumbent cost.
	PruneIncumbentBreak
	// PruneNoNewKeyword: a candidate covering no still-uncovered query
	// keyword was skipped inside a cover enumeration.
	PruneNoNewKeyword
	// PrunePairBound: a partial set was cut by the
	// combine(d(owner,q), maxPair) ≥ best lower bound.
	PrunePairBound
	// PruneOwnerBound: an owner was abandoned because its query distance
	// alone already reached the bound.
	PruneOwnerBound
	// PruneDistanceBreak: a per-keyword candidate list walk stopped early
	// on its ascending-distance order (Cao-Exact).
	PruneDistanceBreak
	// PruneGreedyBound: an approximation construction was abandoned
	// because its partial cost lower bound reached the incumbent.
	PruneGreedyBound
	// PruneCompletionBound: a partial set was cut by the cheapest-
	// completion lower bound (Sum / SumMax exact searches).
	PruneCompletionBound
	// PruneDominated: a candidate was removed by the Sum-cost dominance
	// filter before the search started.
	PruneDominated

	// NumPruneReasons bounds the reason enumeration; it is the length of
	// PruneCounts.
	NumPruneReasons
)

// String implements fmt.Stringer with stable snake_case labels (they are
// JSON keys in the EXPLAIN output).
func (r PruneReason) String() string {
	switch r {
	case PruneOwnerRing:
		return "owner_ring"
	case PruneIncumbentBreak:
		return "incumbent_break"
	case PruneNoNewKeyword:
		return "no_new_keyword"
	case PrunePairBound:
		return "pair_bound"
	case PruneOwnerBound:
		return "owner_bound"
	case PruneDistanceBreak:
		return "distance_break"
	case PruneGreedyBound:
		return "greedy_bound"
	case PruneCompletionBound:
		return "completion_bound"
	case PruneDominated:
		return "dominated"
	default:
		return fmt.Sprintf("prune_reason_%d", int(r))
	}
}

// PruneCounts is a fixed-size vector of per-reason prune counters. It is
// embedded in the engine's per-query Stats, so counting is a plain array
// increment with no allocation, tracing enabled or not.
type PruneCounts [NumPruneReasons]int64

// Merge adds o into p.
func (p *PruneCounts) Merge(o PruneCounts) {
	for i := range p {
		p[i] += o[i]
	}
}

// Total returns the sum over all reasons.
func (p PruneCounts) Total() int64 {
	var t int64
	for _, v := range p {
		t += v
	}
	return t
}

// Map returns the nonzero counters keyed by reason label.
func (p PruneCounts) Map() map[string]int64 {
	m := make(map[string]int64, len(p))
	for r, v := range p {
		if v != 0 {
			m[PruneReason(r).String()] = v
		}
	}
	return m
}

// DefaultMaxSpans bounds the retained spans per trace so a search trying
// thousands of owners cannot build an unbounded tree; spans beyond the
// cap are counted as dropped instead of recorded.
const DefaultMaxSpans = 128

// Attr is one key/value annotation on a span (counts, distances, costs).
type Attr struct {
	Key   string
	Value float64
}

// Span is one timed phase of a query execution. Fields are managed via
// the nil-safe methods; a nil *Span is a disabled span.
type Span struct {
	t        *Trace
	parent   *Span
	name     string
	start    time.Duration // offset from trace start
	dur      time.Duration
	open     bool
	attrs    []Attr
	children []*Span
	// attrBuf is the first backing array of attrs for a span opened by
	// Begin: no span the solvers record carries more than five
	// attributes, so annotating one allocates nothing.
	attrBuf [5]Attr
}

// Trace is the per-query trace: a root span, the open-span stack (one
// query runs on one goroutine, so nesting is a stack) and the retained-
// span budget.
type Trace struct {
	start        time.Time
	root         Span
	cur          *Span
	nspans       int // retained spans, root excluded
	max          int
	dropped      int
	unclosed     int // spans Finish had to close
	droppedFrags int // remote fragments discarded (fragment.go)
	prunes       PruneCounts
}

// New starts a trace whose root span carries name. The clock starts now.
func New(name string) *Trace {
	t := &Trace{start: time.Now(), max: DefaultMaxSpans}
	t.root.t = t
	t.root.name = name
	t.root.open = true
	t.cur = &t.root
	return t
}

// Begin opens a child span of the innermost open span and returns it.
// On a nil trace, or once the retained-span budget is exhausted, it
// returns nil (a disabled span every method accepts).
func (t *Trace) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	return t.BeginAt(name, time.Now())
}

// BeginAt is Begin for a span whose phase started at start, earlier than
// now: a step that is traced only when it turns out worth keeping reads
// the clock before it runs and opens its span after. Nil-safe, and it
// reads no clock itself.
func (t *Trace) BeginAt(name string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	if t.nspans >= t.max {
		t.dropped++
		return nil
	}
	t.nspans++
	s := &Span{t: t, parent: t.cur, name: name, start: start.Sub(t.start), open: true}
	s.attrs = s.attrBuf[:0]
	t.cur.children = append(t.cur.children, s)
	t.cur = s
	return s
}

// End closes the span, recording its duration. Nil-safe.
func (s *Span) End() {
	if s == nil || !s.open {
		return
	}
	s.open = false
	s.dur = time.Since(s.t.start) - s.start
	if s.t.cur == s {
		s.t.cur = s.parent
	}
}

// Attr annotates the span. Nil-safe; values are float64 so counts,
// distances and costs share one representation.
func (s *Span) Attr(key string, v float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// AddPrunes merges a search's prune counters into the trace. Nil-safe.
func (t *Trace) AddPrunes(p PruneCounts) {
	if t == nil {
		return
	}
	t.prunes.Merge(p)
}

// Finish closes every span still open (innermost first), counting them
// as unclosed, and stamps the root duration. Call once, when the query
// execution is over. Nil-safe.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	// Walk the parent chain rather than the stack End pops: a span ended
	// before its open child leaves the stack on a closed span, and
	// ending that one again would pop nothing.
	for s := t.cur; s != nil && s != &t.root; s = s.parent {
		if s.open {
			t.unclosed++
			s.End()
		}
	}
	t.cur = &t.root
	if t.root.open {
		t.root.open = false
		t.root.dur = time.Since(t.start)
	}
}

// Export converts the finished trace into its serializable form. Nil
// traces export as nil.
func (t *Trace) Export() *Export {
	if t == nil {
		return nil
	}
	x := &Export{
		Name:             t.root.name,
		Start:            t.start,
		DurUs:            us(t.root.dur),
		Prunes:           t.prunes.Map(),
		DroppedSpans:     t.dropped,
		UnclosedSpans:    t.unclosed,
		DroppedFragments: t.droppedFrags,
		Spans:            exportSpans(t.root.children),
	}
	if len(x.Prunes) == 0 {
		x.Prunes = nil
	}
	return x
}

// Export is the JSON form of a trace. It doubles as the wire form of a
// shard's trace fragment (fragment.go) — Start stays local to the
// exporting process and is ignored at stitch time.
type Export struct {
	Name         string           `json:"name"`
	Start        time.Time        `json:"start"`
	DurUs        float64          `json:"durUs"`
	Prunes       map[string]int64 `json:"prunes,omitempty"`
	DroppedSpans int              `json:"droppedSpans,omitempty"`
	// UnclosedSpans counts the spans Finish closed because their code
	// path never ended them. A budget or cancellation unwind leaves
	// spans open by design; every other path ends each span it begins.
	UnclosedSpans    int           `json:"unclosedSpans,omitempty"`
	DroppedFragments int           `json:"droppedFragments,omitempty"`
	Spans            []*SpanExport `json:"spans"`
}

// SpanExport is the JSON form of one span. Attrs marshal deterministically
// (encoding/json sorts map keys).
type SpanExport struct {
	Name     string             `json:"name"`
	StartUs  float64            `json:"startUs"`
	DurUs    float64            `json:"durUs"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
	Children []*SpanExport      `json:"children,omitempty"`
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func exportSpans(spans []*Span) []*SpanExport {
	if len(spans) == 0 {
		return nil
	}
	out := make([]*SpanExport, len(spans))
	for i, s := range spans {
		x := &SpanExport{
			Name:     s.name,
			StartUs:  us(s.start),
			DurUs:    us(s.dur),
			Children: exportSpans(s.children),
		}
		if len(s.attrs) > 0 {
			x.Attrs = make(map[string]float64, len(s.attrs))
			for _, a := range s.attrs {
				x.Attrs[a.Key] = a.Value
			}
		}
		out[i] = x
	}
	return out
}

// SpanCount returns the number of spans in the export, the root included.
func (x *Export) SpanCount() int {
	if x == nil {
		return 0
	}
	n := 1
	var walk func([]*SpanExport)
	walk = func(spans []*SpanExport) {
		n += len(spans)
		for _, s := range spans {
			walk(s.Children)
		}
	}
	walk(x.Spans)
	return n
}

// WriteTree renders the trace as an indented human-readable tree, the
// form cmd/coskq -explain and coskq-bench -trace print.
func (x *Export) WriteTree(w io.Writer) {
	if x == nil {
		return
	}
	fmt.Fprintf(w, "%s  %s\n", x.Name, fmtUs(x.DurUs))
	var walk func(spans []*SpanExport, indent string)
	walk = func(spans []*SpanExport, indent string) {
		for i, s := range spans {
			branch, childIndent := "├─ ", indent+"│  "
			if i == len(spans)-1 {
				branch, childIndent = "└─ ", indent+"   "
			}
			fmt.Fprintf(w, "%s%s%s  %s%s\n", indent, branch, s.Name, fmtUs(s.DurUs), fmtAttrs(s.Attrs))
			walk(s.Children, childIndent)
		}
	}
	walk(x.Spans, "")
	if len(x.Prunes) > 0 {
		keys := make([]string, 0, len(x.Prunes))
		for k := range x.Prunes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "prunes:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, x.Prunes[k])
		}
		fmt.Fprintln(w)
	}
	if x.DroppedSpans > 0 {
		fmt.Fprintf(w, "(%d spans over the %d-span budget were dropped)\n", x.DroppedSpans, DefaultMaxSpans)
	}
}

func fmtUs(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fs", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fms", v/1e3)
	default:
		return fmt.Sprintf("%.1fµs", v)
	}
}

func fmtAttrs(attrs map[string]float64) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := "  {"
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%g", k, attrs[k])
	}
	return out + "}"
}

// ctxKey is the private context key carrying a *Trace.
type ctxKey struct{}

// NewContext returns ctx carrying t; queries solved under the returned
// context record into t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil. It never
// allocates, so probing it per query is free when tracing is off.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
