package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := New("query")
	seed := tr.Begin("nn_seed")
	seed.Attr("cost", 4.5)
	seed.End()
	loop := tr.Begin("owner_loop")
	sub := tr.Begin("best_with_owner")
	sub.End()
	loop.Attr("owners", 3)
	loop.End()
	tr.Finish()

	x := tr.Export()
	if x.Name != "query" {
		t.Fatalf("root name %q", x.Name)
	}
	if len(x.Spans) != 2 {
		t.Fatalf("root children = %d, want 2", len(x.Spans))
	}
	if x.Spans[0].Name != "nn_seed" || x.Spans[1].Name != "owner_loop" {
		t.Fatalf("span order: %q, %q", x.Spans[0].Name, x.Spans[1].Name)
	}
	if len(x.Spans[1].Children) != 1 || x.Spans[1].Children[0].Name != "best_with_owner" {
		t.Fatalf("sub-span not nested under owner_loop: %+v", x.Spans[1])
	}
	if x.Spans[0].Attrs["cost"] != 4.5 {
		t.Fatalf("attr lost: %v", x.Spans[0].Attrs)
	}
	if got := x.SpanCount(); got != 4 {
		t.Fatalf("SpanCount = %d, want 4 (root + 3)", got)
	}
}

// TestBeginAtBackdatesSpan: a span opened after its step ran starts
// where the step started, nests under the innermost open span like
// Begin's, and spans from then to its End.
func TestBeginAtBackdatesSpan(t *testing.T) {
	tr := New("query")
	loop := tr.Begin("owner_loop")
	start := time.Now()
	time.Sleep(2 * time.Millisecond) // the step
	sp := tr.BeginAt("best_with_owner", start)
	sp.End()
	loop.End()
	tr.Finish()

	x := tr.Export()
	if len(x.Spans) != 1 || len(x.Spans[0].Children) != 1 {
		t.Fatalf("span tree %+v, want best_with_owner under owner_loop", x.Spans)
	}
	l, s := x.Spans[0], x.Spans[0].Children[0]
	if s.StartUs < l.StartUs || s.StartUs+s.DurUs > l.StartUs+l.DurUs {
		t.Fatalf("span [%v, +%v] µs outside its parent [%v, +%v] µs", s.StartUs, s.DurUs, l.StartUs, l.DurUs)
	}
	if s.DurUs < 2000 {
		t.Fatalf("span lasts %v µs, want it to cover the 2 ms step before it opened", s.DurUs)
	}
}

func TestNilTraceIsNoOpAndAllocFree(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Begin("x")
		sp.Attr("k", 1)
		sp.End()
		tr.BeginAt("y", time.Time{}).End()
		tr.Graft("z", time.Time{}, 0, &Export{})
		tr.AddPrunes(PruneCounts{})
		tr.Finish()
		if tr.Export() != nil {
			t.Fatal("nil trace exported non-nil")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled trace path allocates: %v allocs/op", allocs)
	}
}

func TestFromContextNoTraceAllocFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if FromContext(ctx) != nil {
			t.Fatal("unexpected trace")
		}
	})
	if allocs != 0 {
		t.Fatalf("FromContext allocates on the disabled path: %v allocs/op", allocs)
	}
	if FromContext(nil) != nil {
		t.Fatal("FromContext(nil) != nil")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New("q")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context")
	}
}

func TestSpanBudgetBounds(t *testing.T) {
	tr := New("q")
	for i := 0; i < 2*DefaultMaxSpans; i++ {
		tr.Begin("s").End()
	}
	tr.Finish()
	x := tr.Export()
	if len(x.Spans) != DefaultMaxSpans {
		t.Fatalf("retained %d spans, want %d", len(x.Spans), DefaultMaxSpans)
	}
	if x.DroppedSpans != DefaultMaxSpans {
		t.Fatalf("DroppedSpans = %d, want %d", x.DroppedSpans, DefaultMaxSpans)
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	tr := New("q")
	tr.Begin("outer")
	tr.Begin("inner") // neither ended: a panic-unwound search does this
	tr.Finish()
	x := tr.Export()
	if len(x.Spans) != 1 || len(x.Spans[0].Children) != 1 {
		t.Fatalf("open spans lost: %+v", x.Spans)
	}
	if x.DurUs < 0 || x.Spans[0].DurUs < 0 {
		t.Fatal("negative durations")
	}
	if x.UnclosedSpans != 2 {
		t.Fatalf("UnclosedSpans = %d, want 2", x.UnclosedSpans)
	}
	// A grafted fragment carries its count into the stitched trace.
	st := New("rpc")
	attach(st, x)
	st.Finish()
	if got := st.Export().UnclosedSpans; got != 2 {
		t.Fatalf("stitched UnclosedSpans = %d, want the fragment's 2", got)
	}
}

// TestRenderDeterministic: every rendering of one trace — the JSON a
// shard sends as its fragment, the same JSON after stitching, and the
// explain text — is byte-identical across renders, so map iteration
// order never reaches an output.
func TestRenderDeterministic(t *testing.T) {
	tr := New("serve")
	sp := tr.Begin("owner_loop")
	for _, k := range []string{"owners_tried", "sets_evaluated", "cost", "d_f", "seed_size", "candidates"} {
		sp.Attr(k, float64(len(k)))
	}
	sp.End()
	var p PruneCounts
	for r := PruneReason(0); r < NumPruneReasons; r++ {
		p[r] = int64(r) + 1
	}
	tr.AddPrunes(p)
	tr.Finish()
	raw, err := json.Marshal(tr.Export())
	if err != nil {
		t.Fatal(err)
	}
	frag, err := DecodeFragment(raw)
	if err != nil {
		t.Fatal(err)
	}
	stitched := New("rpc")
	attach(stitched, frag)
	stitched.Finish()

	render := func(tr *Trace) string {
		x := tr.Export()
		b, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		x.WriteTree(&sb)
		return string(b) + "\n" + sb.String()
	}
	want := render(tr) + render(stitched)
	for i := 0; i < 50; i++ {
		if got := render(tr) + render(stitched); got != want {
			t.Fatalf("render %d differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

func TestPruneCounts(t *testing.T) {
	var p PruneCounts
	p[PruneOwnerRing] = 3
	p[PrunePairBound] = 5
	var q PruneCounts
	q[PrunePairBound] = 2
	p.Merge(q)
	if p.Total() != 10 {
		t.Fatalf("Total = %d", p.Total())
	}
	m := p.Map()
	if m["owner_ring"] != 3 || m["pair_bound"] != 7 || len(m) != 2 {
		t.Fatalf("Map = %v", m)
	}
	// Every reason has a distinct stable label.
	seen := map[string]bool{}
	for r := PruneReason(0); r < NumPruneReasons; r++ {
		s := r.String()
		if seen[s] || strings.HasPrefix(s, "prune_reason_") {
			t.Fatalf("bad label %q for reason %d", s, r)
		}
		seen[s] = true
	}
}

func TestExportJSONAndTree(t *testing.T) {
	tr := New("query MaxSum/OwnerExact")
	sp := tr.Begin("nn_seed")
	sp.Attr("d_f", 2.5)
	sp.End()
	var p PruneCounts
	p[PruneIncumbentBreak] = 1
	tr.AddPrunes(p)
	tr.Finish()

	b, err := json.Marshal(tr.Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"query MaxSum/OwnerExact"`, `"nn_seed"`, `"d_f":2.5`, `"incumbent_break":1`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("JSON missing %s:\n%s", want, b)
		}
	}

	var sb strings.Builder
	tr.Export().WriteTree(&sb)
	tree := sb.String()
	if !strings.Contains(tree, "└─ nn_seed") || !strings.Contains(tree, "prunes: incumbent_break=1") {
		t.Fatalf("tree rendering:\n%s", tree)
	}
}

func TestSlowLogKeepsSlowest(t *testing.T) {
	l := NewSlowLog(3)
	for i := 1; i <= 10; i++ {
		l.Observe(Entry{Query: fmt.Sprintf("q%d", i), ElapsedMs: float64(i)})
	}
	got := l.Snapshot()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].ElapsedMs != 10 || got[1].ElapsedMs != 9 || got[2].ElapsedMs != 8 {
		t.Fatalf("kept %v, want the 3 slowest, slowest first", got)
	}
}

// refSlowLog is the slow log's admission rule written as the rescan it
// replaces: find the first entry of least elapsed time on every Observe.
type refSlowLog struct {
	cap     int
	entries []Entry
}

func (l *refSlowLog) observe(e Entry) bool {
	if len(l.entries) < l.cap {
		l.entries = append(l.entries, e)
		return true
	}
	fastest := 0
	for i := 1; i < len(l.entries); i++ {
		if l.entries[i].ElapsedMs < l.entries[fastest].ElapsedMs {
			fastest = i
		}
	}
	if e.ElapsedMs > l.entries[fastest].ElapsedMs {
		l.entries[fastest] = e
		return true
	}
	return false
}

// TestSlowLogMatchesRescan: over random sequences — elapsed times drawn
// from a narrow range so ties are common — the log keeps the same
// entries in the same slots as the rescanning rule, so Snapshot's order
// (ties included) is the same, and Admits predicts every retention.
func TestSlowLogMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(20)
		l, ref := NewSlowLog(k), &refSlowLog{cap: k}
		for i := 0; i < 400; i++ {
			e := Entry{Query: fmt.Sprintf("q%d", i), ElapsedMs: float64(rng.Intn(40)) / 4}
			admits := l.Admits(e.ElapsedMs)
			l.Observe(e)
			if kept := ref.observe(e); kept != admits {
				t.Fatalf("trial %d, entry %d (%v ms): Admits %v, rescan kept %v", trial, i, e.ElapsedMs, admits, kept)
			}
			if !reflect.DeepEqual(l.entries, ref.entries) {
				t.Fatalf("trial %d, entry %d: retained %v, rescan retains %v", trial, i, l.entries, ref.entries)
			}
		}
		want := (&SlowLog{entries: ref.entries}).Snapshot()
		if got := l.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: snapshot %v, want %v", trial, got, want)
		}
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Observe(Entry{Query: "q", ElapsedMs: float64(w*1000 + i), Time: time.Now()})
			}
		}(w)
	}
	wg.Wait()
	got := l.Snapshot()
	if len(got) != 8 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].ElapsedMs > got[i-1].ElapsedMs {
			t.Fatalf("snapshot not sorted: %v", got)
		}
	}
	// The global slowest observation must have survived.
	if got[0].ElapsedMs != 7*1000+199 {
		t.Fatalf("slowest retained = %v, want 7199", got[0].ElapsedMs)
	}
}

// TestFinishAfterParentEndedFirst: a span ended while its child is still
// open leaves the open-span stack on a closed span; Finish still closes
// the child, counts it alone, and returns.
func TestFinishAfterParentEndedFirst(t *testing.T) {
	tr := New("q")
	outer := tr.Begin("outer")
	tr.Begin("inner")
	outer.End()
	tr.Finish()
	x := tr.Export()
	if x.UnclosedSpans != 1 || len(x.Spans) != 1 || len(x.Spans[0].Children) != 1 {
		t.Fatalf("unclosed %d, spans %+v; want the inner span closed and counted", x.UnclosedSpans, x.Spans)
	}
}
