// Fuzz targets for the two places untrusted remote bytes enter the
// tracing layer: the traceparent header a peer sends us and the JSON
// trace fragment a shard returns. Both must hold their contracts under
// arbitrary input — a hostile shard can degrade observability, never
// crash the coordinator.
package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseTraceparent: parsing never panics; anything accepted must be
// a valid context that re-renders to the same ids and survives a
// round-trip through Traceparent.
func FuzzParseTraceparent(f *testing.F) {
	sc := NewSpanContext()
	f.Add(sc.Traceparent())
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-ff")
	f.Add("00-00000000000000000000000000000000-b7ad6b7169203331-01") // zero trace id
	f.Add("00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01") // uppercase
	f.Add("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01") // unknown version
	f.Add("")
	f.Add(strings.Repeat("-", 55))

	f.Fuzz(func(t *testing.T, h string) {
		got, ok := ParseTraceparent(h)
		if !ok {
			if got != (SpanContext{}) {
				t.Fatalf("rejected header left residue: %+v", got)
			}
			return
		}
		if !got.Valid() {
			t.Fatalf("accepted an invalid context from %q: %+v", h, got)
		}
		// The ids must round-trip exactly; only the flags byte (which
		// Traceparent normalizes to 01) may differ from the input.
		rendered := got.Traceparent()
		if rendered[:53] != h[:53] {
			t.Fatalf("ids did not round-trip: parsed %q, re-rendered %q", h, rendered)
		}
		if re, ok2 := ParseTraceparent(rendered); !ok2 || re != got {
			t.Fatalf("re-rendered header did not re-parse: %q -> %v, %v", rendered, re, ok2)
		}
	})
}

// FuzzDecodeFragment: decoding never panics, every accepted fragment
// re-validates and stitches into a live trace, and the stitched export
// still marshals (no NaN/Inf smuggled past validation).
func FuzzDecodeFragment(f *testing.F) {
	// The byzantine corpus from TestFragmentByzantine, plus valid shapes.
	f.Add([]byte(`{"name":"serve","durUs":120,"spans":[{"name":"nn","startUs":5,"durUs":50,"attrs":{"shards":3}}]}`))
	f.Add([]byte(`{"name":"serve","durUs":1,"prunes":{"owner_ring":2},"spans":[]}`))
	f.Add([]byte(`{{{not json`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"name":"serve","durUs":"NaN"}`))
	f.Add([]byte(`{"name":"serve","durUs":1,"spans":[null]}`))
	f.Add([]byte(`{"name":"serve","durUs":1,"prunes":{"owner_ring":-5},"spans":[]}`))
	f.Add([]byte(`{"name":"serve","durUs":1,"droppedSpans":-1,"spans":[]}`))
	f.Add([]byte(`{"name":"s","durUs":1,"spans":[{"name":"a","children":[{"name":"b","children":[{"name":"c"}]}]}]}`))
	f.Add([]byte(`{"name":"s","durUs":1e308,"spans":[{"name":"a","startUs":-1e308,"durUs":1e308}]}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		x, err := DecodeFragment(raw)
		if err != nil {
			if x != nil {
				t.Fatalf("error %v returned alongside a fragment", err)
			}
			return
		}
		if err := validateFragment(x); err != nil {
			t.Fatalf("accepted fragment fails re-validation: %v", err)
		}
		tr := New("rpc")
		attach(tr, x)
		tr.Finish()
		out := tr.Export()
		if _, err := json.Marshal(out); err != nil {
			t.Fatalf("stitched export does not marshal: %v", err)
		}
	})
}
