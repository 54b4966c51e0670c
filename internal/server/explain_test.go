package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/shard"
	"coskq/internal/trace"
)

// newTestServerWith is testServer with explicit options.
func newTestServerWith(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	b := dataset.NewBuilder("city")
	b.Add(geo.Point{X: 1, Y: 0}, "cafe")
	b.Add(geo.Point{X: 0, Y: 2}, "museum")
	b.Add(geo.Point{X: 2, Y: 2}, "cafe", "museum")
	b.Add(geo.Point{X: 50, Y: 50}, "park")
	eng := core.NewEngine(b.Build(), 0)
	srv := httptest.NewServer(NewWith(eng, opts))
	t.Cleanup(srv.Close)
	return srv
}

// maxDepth returns the deepest nesting level of the exported span tree,
// the root counting as level 1.
func maxDepth(x *trace.Export) int {
	var walk func(spans []*trace.SpanExport) int
	walk = func(spans []*trace.SpanExport) int {
		deepest := 0
		for _, s := range spans {
			if d := 1 + walk(s.Children); d > deepest {
				deepest = d
			}
		}
		return deepest
	}
	return 1 + walk(x.Spans)
}

// TestExplainQuery is the acceptance check for ?explain=1: the response
// inlines a trace with at least three nested phase spans and nonzero
// prune-reason counters, for both MaxSum and Dia under the exact method.
func TestExplainQuery(t *testing.T) {
	srv, _ := testServer(t)
	for _, cost := range []string{"maxsum", "dia"} {
		t.Run(cost, func(t *testing.T) {
			var got queryResponse
			url := fmt.Sprintf("%s/query?x=0&y=0&kw=cafe,museum&cost=%s&method=exact&explain=1", srv.URL, cost)
			getJSON(t, url, http.StatusOK, &got)
			if got.Trace == nil {
				t.Fatal("explain=1 returned no trace")
			}
			if got.Trace.Name != "query" {
				t.Fatalf("trace root %q, want query", got.Trace.Name)
			}
			if d := maxDepth(got.Trace); d < 3 {
				t.Fatalf("trace depth %d, want >= 3 nested phase spans", d)
			}
			if n := got.Trace.SpanCount(); n < 4 {
				t.Fatalf("trace has %d spans, want >= 4", n)
			}
			total := int64(0)
			for _, v := range got.Trace.Prunes {
				total += v
			}
			if total == 0 {
				t.Fatalf("trace has no prune-reason counts: %+v", got.Trace.Prunes)
			}
			if got.Trace.DurUs <= 0 {
				t.Fatal("trace duration not stamped")
			}
		})
	}
}

// TestExplainAbsentByDefault: without explain=1 the response carries no
// trace, and the request is not traced at all.
func TestExplainAbsentByDefault(t *testing.T) {
	srv, _ := testServer(t)
	var got queryResponse
	getJSON(t, srv.URL+"/query?x=0&y=0&kw=cafe,museum", http.StatusOK, &got)
	if got.Trace != nil {
		t.Fatal("trace inlined without explain=1")
	}
}

// TestExplainTopK: /topk?explain=1 also inlines the trace.
func TestExplainTopK(t *testing.T) {
	srv, _ := testServer(t)
	var got topKResponse
	getJSON(t, srv.URL+"/topk?x=0&y=0&kw=cafe,museum&n=2&explain=1", http.StatusOK, &got)
	if got.Trace == nil {
		t.Fatal("explain=1 returned no trace")
	}
	if got.Trace.Name != "topk" {
		t.Fatalf("trace root %q, want topk", got.Trace.Name)
	}
	if d := maxDepth(got.Trace); d < 3 {
		t.Fatalf("trace depth %d, want >= 3", d)
	}
}

// TestSlowLogEndpoint: every query feeds the slow-query log; the
// endpoint returns the retained entries slowest first, each with its
// answer's effort counters. Only an explained request was traced, so
// only its entry carries a trace.
func TestSlowLogEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	for i := 0; i < 3; i++ {
		var qr queryResponse
		getJSON(t, srv.URL+"/query?x=0&y=0&kw=cafe,museum", http.StatusOK, &qr)
	}
	var got slowLogResponse
	getJSON(t, srv.URL+"/debug/slowlog", http.StatusOK, &got)
	if got.Capacity != DefaultSlowLogSize {
		t.Fatalf("capacity %d, want %d", got.Capacity, DefaultSlowLogSize)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("%d entries, want 3", len(got.Entries))
	}
	for i, e := range got.Entries {
		if e.Trace != nil {
			t.Fatalf("entry %d of an untraced query has a trace", i)
		}
		if e.OwnersTried == 0 || e.SetsEvaluated == 0 || e.SearchUs <= 0 {
			t.Fatalf("entry %d lacks its answer's effort: %+v", i, e)
		}
		if e.ID == "" {
			t.Fatalf("entry %d has no request id", i)
		}
		if e.Query == "" {
			t.Fatalf("entry %d has no query description", i)
		}
		if i > 0 && e.ElapsedMs > got.Entries[i-1].ElapsedMs {
			t.Fatal("slowlog entries not slowest-first")
		}
	}

	// The log has room, so it admits an explained request, and keeps
	// that request's trace.
	var qr queryResponse
	getJSON(t, srv.URL+"/query?x=0&y=0&kw=cafe,museum&explain=1", http.StatusOK, &qr)
	getJSON(t, srv.URL+"/debug/slowlog", http.StatusOK, &got)
	traced := 0
	for _, e := range got.Entries {
		if strings.Contains(e.Query, "explain=1") {
			traced++
			if e.Trace == nil || e.Trace.Name != "query" {
				t.Fatalf("explained entry kept no trace: %+v", e)
			}
		} else if e.Trace != nil {
			t.Fatalf("untraced entry has a trace: %+v", e)
		}
	}
	if len(got.Entries) != 4 || traced != 1 {
		t.Fatalf("%d entries, %d explained; want 4 and 1", len(got.Entries), traced)
	}
}

// TestSlowLogRetainsFailures: an execution that errors is still retained,
// with the error recorded on the entry.
func TestSlowLogRetainsFailures(t *testing.T) {
	srv, _ := testServer(t)
	// MinMax has no Cao-Exact algorithm → ErrUnsupported → 400.
	resp, err := http.Get(srv.URL + "/query?x=0&y=0&kw=cafe,museum&cost=minmax&method=cao-exact")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var got slowLogResponse
	getJSON(t, srv.URL+"/debug/slowlog", http.StatusOK, &got)
	if len(got.Entries) != 1 {
		t.Fatalf("%d entries, want 1", len(got.Entries))
	}
	if got.Entries[0].Err == "" {
		t.Fatal("failed execution retained without its error")
	}
}

// TestSlowLogDisabled: SlowLog < 0 turns the endpoint off.
func TestSlowLogDisabled(t *testing.T) {
	srv := newTestServerWith(t, Options{SlowLog: -1})
	resp, err := http.Get(srv.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	// explain=1 still works without the slow log.
	var got queryResponse
	getJSON(t, srv.URL+"/query?x=0&y=0&kw=cafe,museum&explain=1", http.StatusOK, &got)
	if got.Trace == nil {
		t.Fatal("explain=1 returned no trace with slowlog disabled")
	}
}

// TestCoordinatorExplainShardOrder: a coordinator over in-process shards
// at full fan-out explains every query with the RPC spans of each
// scatter phase in shard order, however the calls were scheduled — the
// query's goroutine grafts them once all have returned.
func TestCoordinatorExplainShardOrder(t *testing.T) {
	_, all := districts()
	rt, err := shard.NewLocalRouter(all, 3, shard.Grid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewScatterGather(rt, Options{}))
	t.Cleanup(srv.Close)
	for i := 0; i < 20; i++ {
		var got queryResponse
		getJSON(t, srv.URL+"/query?x=50&y=30&kw=cafe,museum,park&explain=1", http.StatusOK, &got)
		if got.Trace == nil {
			t.Fatal("explain=1 returned no trace")
		}
		for _, phase := range []string{"nn", "collect"} {
			var names []string
			for _, sp := range got.Trace.Spans {
				if sp.Name == "shard_"+phase {
					for _, c := range sp.Children {
						names = append(names, c.Name)
					}
				}
			}
			var want []string
			for _, b := range rt.Backends {
				if slices.Contains(names, phase+":"+b.Name()) {
					want = append(want, phase+":"+b.Name())
				}
			}
			if len(names) < 2 || !slices.Equal(names, want) {
				t.Fatalf("query %d: shard_%s RPC spans %v, want at least two in shard order %v", i, phase, names, want)
			}
		}
	}
}
