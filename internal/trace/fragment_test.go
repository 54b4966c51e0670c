package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// buildServeTrace fabricates the trace a shard server would produce:
// a "serve" root with two phase spans, attrs, and prune counters.
func buildServeTrace() *Trace {
	tr := New("serve")
	sp := tr.Begin("nn_probes")
	sp.Attr("keywords", 3)
	ps := tr.Begin("probe")
	ps.Attr("dist", 1.5)
	ps.End()
	sp.End()
	cs := tr.Begin("collect_scan")
	cs.Attr("objects", 7)
	cs.End()
	var p PruneCounts
	p[PruneOwnerRing] = 4
	p[PrunePairBound] = 2
	tr.AddPrunes(p)
	tr.Finish()
	return tr
}

// attach grafts a fragment the way a shard call does: as the handler
// span that ended now and lasted the fragment's own duration.
func attach(tr *Trace, x *Export) {
	d := durUs(x.DurUs)
	tr.Graft(x.Name, time.Now().Add(-d), d, x)
}

// TestFragmentRoundTrip: Export → JSON → DecodeFragment → Graft
// reproduces the remote span tree under the local trace, re-based and
// with prune counters merged — the full wire path of one shard call.
func TestFragmentRoundTrip(t *testing.T) {
	raw, err := json.Marshal(buildServeTrace().Export())
	if err != nil {
		t.Fatal(err)
	}

	x, err := DecodeFragment(raw)
	if err != nil {
		t.Fatalf("DecodeFragment: %v", err)
	}
	if x.Name != "serve" || len(x.Spans) != 2 {
		t.Fatalf("decoded fragment: name %q, %d top spans", x.Name, len(x.Spans))
	}

	local := New("rpc")
	attach(local, x)
	local.Finish()
	out := local.Export()
	if local.DroppedFragments() != 0 {
		t.Fatalf("%d fragments dropped", local.DroppedFragments())
	}
	if len(out.Spans) != 1 || out.Spans[0].Name != "serve" {
		t.Fatalf("fragment root not grafted: %+v", out.Spans)
	}
	serve := out.Spans[0]
	if len(serve.Children) != 2 || serve.Children[0].Name != "nn_probes" || serve.Children[1].Name != "collect_scan" {
		t.Fatalf("remote children lost: %+v", serve.Children)
	}
	probe := serve.Children[0].Children
	if len(probe) != 1 || probe[0].Name != "probe" || probe[0].Attrs["dist"] != 1.5 {
		t.Fatalf("nested remote span lost: %+v", probe)
	}
	if out.Prunes["owner_ring"] != 4 || out.Prunes["pair_bound"] != 2 {
		t.Fatalf("prunes not merged: %v", out.Prunes)
	}
	// Re-basing: no grafted span may start before the trace origin.
	var walk func(spans []*SpanExport)
	walk = func(spans []*SpanExport) {
		for _, s := range spans {
			if s.StartUs < 0 {
				t.Fatalf("span %q starts before trace origin: %v", s.Name, s.StartUs)
			}
			walk(s.Children)
		}
	}
	walk(out.Spans)
}

// TestFragmentClockSkewTolerance: a fragment claiming a duration far
// longer than the local RPC (a skewed or lying shard clock) still
// grafts with non-negative offsets — remote clocks never shift spans
// before the local trace start.
func TestFragmentClockSkewTolerance(t *testing.T) {
	x := &Export{
		Name:  "serve",
		DurUs: 1e9, // claims 1000s of work inside a microsecond RPC
		Spans: []*SpanExport{{Name: "nn_probes", StartUs: -5e8, DurUs: 1e3}},
	}
	if err := validateFragment(x); err != nil {
		t.Fatalf("skewed-but-finite fragment should validate: %v", err)
	}
	local := New("rpc")
	attach(local, x)
	local.Finish()
	out := local.Export()
	if len(out.Spans) != 1 {
		t.Fatalf("fragment not attached: %+v", out.Spans)
	}
	if out.Spans[0].StartUs < 0 || out.Spans[0].Children[0].StartUs < 0 {
		t.Fatalf("skew produced negative offsets: %+v", out.Spans[0])
	}
}

// TestFragmentByzantine: every malformed-fragment class is rejected with
// the typed error — and none of them panics.
func TestFragmentByzantine(t *testing.T) {
	deep := `{"name":"serve","durUs":1,"spans":[`
	closer := ""
	for i := 0; i <= MaxFragmentDepth; i++ {
		deep += `{"name":"s","startUs":0,"durUs":1,"children":[`
		closer += `]}`
	}
	deep += `]` + closer[2:] + `]}`

	manySpans := make([]string, MaxFragmentSpans+1)
	for i := range manySpans {
		manySpans[i] = `{"name":"s","startUs":0,"durUs":1}`
	}

	cases := map[string]struct {
		raw  string
		want error
	}{
		"oversized":      {strings.Repeat(" ", MaxFragmentBytes+1), ErrFragmentTooLarge},
		"garbage":        {`{{{not json`, ErrFragmentInvalid},
		"wrong type":     {`[1,2,3]`, ErrFragmentInvalid},
		"nan duration":   {`{"name":"serve","durUs":"NaN"}`, ErrFragmentInvalid},
		"null span":      {`{"name":"serve","durUs":1,"spans":[null]}`, ErrFragmentInvalid},
		"too many spans": {fmt.Sprintf(`{"name":"serve","durUs":1,"spans":[%s]}`, strings.Join(manySpans, ",")), ErrFragmentInvalid},
		"too deep":       {deep, ErrFragmentInvalid},
		"negative prune": {`{"name":"serve","durUs":1,"prunes":{"owner_ring":-5},"spans":[]}`, ErrFragmentInvalid},
		"negative drops": {`{"name":"serve","durUs":1,"droppedSpans":-1,"spans":[]}`, ErrFragmentInvalid},
	}
	for name, tc := range cases {
		x, err := DecodeFragment([]byte(tc.raw))
		if err == nil {
			t.Errorf("%s: decoded without error: %+v", name, x)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", name, err, tc.want)
		}
	}
}

// TestFragmentNonFiniteTimes: Infs and NaNs inside span times or attrs
// are rejected (they would corrupt every downstream duration sum).
func TestFragmentNonFiniteTimes(t *testing.T) {
	for _, x := range []*Export{
		{Name: "serve", DurUs: math.Inf(1)},
		{Name: "serve", DurUs: 1, Spans: []*SpanExport{{Name: "s", StartUs: math.NaN()}}},
		{Name: "serve", DurUs: 1, Spans: []*SpanExport{{Name: "s", DurUs: math.Inf(-1)}}},
		{Name: "serve", DurUs: 1, Spans: []*SpanExport{{Name: "s", Attrs: map[string]float64{"d": math.NaN()}}}},
	} {
		if err := validateFragment(x); !errors.Is(err, ErrFragmentInvalid) {
			t.Errorf("non-finite fragment validated: %+v (err %v)", x, err)
		}
	}
}

// TestFragmentUnknownPruneLabels: counters minted by a different version
// (or a hostile shard) are ignored, not crashed on and not counted.
func TestFragmentUnknownPruneLabels(t *testing.T) {
	local := New("rpc")
	attach(local, &Export{
		Name:   "serve",
		DurUs:  1,
		Prunes: map[string]int64{"owner_ring": 3, "totally_made_up": 99},
	})
	local.Finish()
	out := local.Export()
	if out.Prunes["owner_ring"] != 3 {
		t.Fatalf("known label lost: %v", out.Prunes)
	}
	if _, ok := out.Prunes["totally_made_up"]; ok {
		t.Fatalf("unknown label adopted: %v", out.Prunes)
	}
}

// TestAttachFragmentBudget: grafting respects the retained-span budget —
// spans beyond it are counted dropped, and a fragment whose root cannot
// even be placed counts as a dropped fragment.
func TestAttachFragmentBudget(t *testing.T) {
	tr := New("rpc")
	for i := 0; i < DefaultMaxSpans-2; i++ {
		tr.Begin("filler").End()
	}
	// 2 slots left; the fragment needs 1 (root) + 3 (children).
	frag := &Export{Name: "serve", DurUs: 1, Spans: []*SpanExport{
		{Name: "a", DurUs: 1}, {Name: "b", DurUs: 1}, {Name: "c", DurUs: 1},
	}}
	attach(tr, frag)
	tr.Finish()
	out := tr.Export()
	if out.DroppedFragments != 0 {
		t.Fatal("root slot was available; attach should succeed partially")
	}
	if out.DroppedSpans != 2 {
		t.Fatalf("dropped %d spans, want 2 (b and c over budget)", out.DroppedSpans)
	}

	// Now the budget is exhausted entirely: the root itself cannot graft.
	tr2 := New("rpc")
	for i := 0; i < DefaultMaxSpans; i++ {
		tr2.Begin("filler").End()
	}
	attach(tr2, frag)
	if tr2.DroppedFragments() != 1 {
		t.Fatalf("dropped fragments %d, want 1", tr2.DroppedFragments())
	}
}

// TestGraftRebasing: Graft offsets the grafted children by the RPC
// span's start, so a shard's 0-based offsets land inside the RPC span.
func TestGraftRebasing(t *testing.T) {
	tr := New("scatter")
	time.Sleep(2 * time.Millisecond) // move the RPC span's start off 0
	tr.Graft("nn:shard0", time.Now(), time.Microsecond, &Export{Name: "nn", DurUs: 1, Spans: []*SpanExport{{Name: "nn_probes", StartUs: 0, DurUs: 1}}})
	tr.Finish()
	out := tr.Export()
	rpc := out.Spans[0]
	if rpc.Name != "nn:shard0" || rpc.StartUs < 2000 || len(rpc.Children) != 1 {
		t.Fatalf("graft placed %+v, want the nn:shard0 span after 2 ms with its child", rpc)
	}
	if got := rpc.Children[0].StartUs; got < rpc.StartUs {
		t.Fatalf("grafted child starts at %v, before its RPC span %v", got, rpc.StartUs)
	}
}
