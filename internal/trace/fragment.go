// Trace fragments: the serialized span subtree a shard server returns
// from a data-plane call, grafted into the coordinator's trace so one
// ?explain=1 response shows the whole scatter-gather anatomy.
//
// A fragment is just an Export — the same JSON the server inlines on
// ?explain=1 — but produced by a *remote* process, so it is untrusted
// input: DecodeFragment enforces hard size, span-count and depth limits
// and rejects non-finite times, and a fragment that fails them is
// dropped (counted on the trace, surfaced as a metric by the router),
// never an error on the query path and never a coordinator panic.
//
// Stitching is clock-skew-tolerant by construction: a fragment carries
// only offsets from its own trace start, and grafting re-bases them onto
// the local span covering the RPC. Remote wall clocks never enter the
// stitched tree, so a shard with a skewed clock produces correct nesting
// and at worst slightly shifted child offsets within its RPC span.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"
)

// Fragment limits. A byzantine or buggy shard must not be able to blow
// up the coordinator's memory through its telemetry side channel: the
// raw JSON, the span count and the nesting depth are all bounded, and
// the per-trace span budget (DefaultMaxSpans) still applies on top.
const (
	// MaxFragmentBytes bounds the raw JSON of one fragment.
	MaxFragmentBytes = 64 << 10
	// MaxFragmentSpans bounds the spans of one fragment (root excluded).
	MaxFragmentSpans = 64
	// MaxFragmentDepth bounds the nesting depth of a fragment's spans.
	MaxFragmentDepth = 16
)

// Fragment decode errors, matched by the byzantine-shard tests.
var (
	ErrFragmentTooLarge = errors.New("trace: fragment exceeds size limit")
	ErrFragmentInvalid  = errors.New("trace: fragment is malformed")
)

// DecodeFragment parses and validates a trace fragment received from a
// shard. It returns ErrFragmentTooLarge / ErrFragmentInvalid (wrapped
// with detail) for anything outside the limits; the caller drops the
// fragment and counts it, keeping the query path alive.
func DecodeFragment(raw []byte) (*Export, error) {
	if len(raw) > MaxFragmentBytes {
		return nil, fmt.Errorf("%w: %d bytes > %d", ErrFragmentTooLarge, len(raw), MaxFragmentBytes)
	}
	var x Export
	if err := json.Unmarshal(raw, &x); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFragmentInvalid, err)
	}
	if err := validateFragment(&x); err != nil {
		return nil, err
	}
	return &x, nil
}

// validateFragment walks the span tree enforcing the count/depth/time
// limits on an already-decoded Export.
func validateFragment(x *Export) error {
	if !finiteUs(x.DurUs) {
		return fmt.Errorf("%w: non-finite root duration", ErrFragmentInvalid)
	}
	for k, v := range x.Prunes {
		if v < 0 {
			return fmt.Errorf("%w: negative prune counter %q", ErrFragmentInvalid, k)
		}
	}
	if x.DroppedSpans < 0 || x.UnclosedSpans < 0 || x.DroppedFragments < 0 {
		return fmt.Errorf("%w: negative drop counter", ErrFragmentInvalid)
	}
	n := 0
	var walk func(spans []*SpanExport, depth int) error
	walk = func(spans []*SpanExport, depth int) error {
		if depth > MaxFragmentDepth {
			return fmt.Errorf("%w: span depth > %d", ErrFragmentInvalid, MaxFragmentDepth)
		}
		for _, s := range spans {
			if s == nil {
				return fmt.Errorf("%w: null span", ErrFragmentInvalid)
			}
			if n++; n > MaxFragmentSpans {
				return fmt.Errorf("%w: more than %d spans", ErrFragmentInvalid, MaxFragmentSpans)
			}
			if !finiteUs(s.StartUs) || !finiteUs(s.DurUs) {
				return fmt.Errorf("%w: non-finite span time", ErrFragmentInvalid)
			}
			for k, v := range s.Attrs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("%w: non-finite attr %q", ErrFragmentInvalid, k)
				}
			}
			if err := walk(s.Children, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(x.Spans, 1)
}

func finiteUs(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// durUs converts a fragment's µs value into a Duration, clamping
// negatives to zero (a skewed or hostile shard must not move spans
// before their parent).
func durUs(v float64) time.Duration {
	if v <= 0 {
		return 0
	}
	return time.Duration(v * 1e3)
}

// DropFragment records that a fragment destined for this trace was
// discarded (malformed, oversized, or over budget). Nil-safe. The count
// is exported so the coordinator can both display it and meter it.
func (t *Trace) DropFragment() {
	if t == nil {
		return
	}
	t.droppedFrags++
}

// DroppedFragments returns the number of fragments dropped so far.
func (t *Trace) DroppedFragments() int {
	if t == nil {
		return 0
	}
	return t.droppedFrags
}

// Graft attaches x as one closed child span of the innermost open span:
// the span is named name, starts at start and lasts dur, and x's spans —
// offsets from x's own trace start — hang beneath it, re-based onto
// start, so remote wall clocks never enter the tree. x's prune counters
// and span counts merge into the trace. When the retained-span budget
// cannot hold the grafted span, Graft counts a dropped fragment instead.
// Nil-safe; like Begin, it is for the trace's owner only.
func (t *Trace) Graft(name string, start time.Time, dur time.Duration, x *Export) {
	if t == nil {
		return
	}
	base := max(start.Sub(t.start), 0)
	s := t.graftSpan(t.cur, name, base, max(dur, 0), nil)
	if s == nil {
		t.droppedFrags++
		return
	}
	t.graftChildren(s, x.Spans, base)
	t.prunes.mergeMap(x.Prunes)
	t.dropped += x.DroppedSpans
	t.unclosed += x.UnclosedSpans
	t.droppedFrags += x.DroppedFragments
}

// graftSpan appends one closed span under parent, consuming one slot of
// the retained-span budget; it returns nil (counting the drop) when the
// budget is exhausted.
func (t *Trace) graftSpan(parent *Span, name string, start, dur time.Duration, attrs []Attr) *Span {
	if t.nspans >= t.max {
		t.dropped++
		return nil
	}
	t.nspans++
	s := &Span{t: t, parent: parent, name: name, start: start, dur: dur, attrs: attrs}
	parent.children = append(parent.children, s)
	return s
}

// graftChildren converts exported spans into closed spans under parent,
// offsetting their trace-relative starts by base.
func (t *Trace) graftChildren(parent *Span, spans []*SpanExport, base time.Duration) {
	for i, x := range spans {
		s := t.graftSpan(parent, x.Name, base+durUs(x.StartUs), durUs(x.DurUs), attrsOf(x.Attrs))
		if s == nil {
			// Budget exhausted: graftSpan counted the span it refused;
			// count the rest of this level's subtree as dropped without
			// building it.
			t.dropped += countSpans(spans[i:]) - 1
			return
		}
		t.graftChildren(s, x.Children, base)
	}
}

func countSpans(spans []*SpanExport) int {
	n := len(spans)
	for _, s := range spans {
		n += countSpans(s.Children)
	}
	return n
}

// attrsOf converts an exported attr map into a span's slice form. The
// slice order is never observable: Export turns it back into a map, and
// JSON and WriteTree both sort its keys.
func attrsOf(m map[string]float64) []Attr {
	if len(m) == 0 {
		return nil
	}
	out := make([]Attr, 0, len(m))
	for k, v := range m {
		out = append(out, Attr{Key: k, Value: v})
	}
	return out
}

// mergeMap folds a fragment's labeled prune counters into the fixed
// vector. Labels minted by a different (byzantine or future) version
// that match no known reason are ignored — the counters are telemetry,
// not data.
func (p *PruneCounts) mergeMap(m map[string]int64) {
	for k, v := range m {
		if r, ok := pruneReasonByName[k]; ok && v > 0 {
			p[r] += v
		}
	}
}

// pruneReasonByName inverts PruneReason.String for fragment merges.
var pruneReasonByName = func() map[string]PruneReason {
	m := make(map[string]PruneReason, NumPruneReasons)
	for r := PruneReason(0); r < NumPruneReasons; r++ {
		m[r.String()] = r
	}
	return m
}()
