// End-to-end tests of the distributed observability path: trace
// propagation coordinator → shard servers, fragment stitching into one
// ?explain=1 tree, per-shard slowlog breakdown, byzantine-fragment
// tolerance, and the federated /metrics page. All over real HTTP via
// httptest, checked against the single-engine oracle.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"coskq/internal/client"
	"coskq/internal/core"
	"coskq/internal/geo"
	"coskq/internal/shard"
	"coskq/internal/testutil"
	"coskq/internal/trace"
)

// getBody fetches a URL and returns the body as a string, expecting 200.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// findSpan returns the first span named name anywhere in the tree.
func findSpan(spans []*trace.SpanExport, name string) *trace.SpanExport {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
		if hit := findSpan(s.Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

// TestScatterExplainStitchedTrace is the acceptance check for
// distributed tracing: a coordinator ?explain=1 over three HTTP shard
// servers returns ONE trace tree whose shard_nn group holds a span per
// shard RPC, each carrying the shard's own serve-side spans — the full
// scatter-gather anatomy, stitched across process boundaries. The
// answer itself still matches the single-engine oracle.
func TestScatterExplainStitchedTrace(t *testing.T) {
	coord, shards, eng := scatterFleet(t, core.DegradeFail)
	want := oracleQuery(t, eng, geo.Point{X: 50, Y: 30}, []string{"cafe", "museum", "park"})

	var got queryResponse
	getJSON(t, coord.URL+"/query?x=50&y=30&kw=cafe,museum,park&explain=1", http.StatusOK, &got)
	if got.Cost != want.Cost {
		t.Fatalf("scatter cost %v, oracle %v", got.Cost, want.Cost)
	}
	if got.Trace == nil || got.Trace.Name != "query" {
		t.Fatalf("trace = %+v, want root query", got.Trace)
	}
	for _, phase := range []string{"keyword_prune", "shard_nn", "mbr_prune", "shard_collect"} {
		if findSpan(got.Trace.Spans, phase) == nil {
			t.Fatalf("coordinator phase %q missing from stitched trace", phase)
		}
	}
	nnGroup := findSpan(got.Trace.Spans, "shard_nn")
	if len(nnGroup.Children) != len(shards) {
		t.Fatalf("shard_nn has %d children, want one per shard (%d)", len(nnGroup.Children), len(shards))
	}
	for _, srv := range shards {
		rpc := findSpan(nnGroup.Children, "nn:"+srv.URL)
		if rpc == nil {
			t.Fatalf("no RPC span for shard %s in %+v", srv.URL, nnGroup.Children)
		}
		// Under the RPC span: the shard's remote "serve" root, carrying
		// its own nn_probes phase — proof the fragment crossed HTTP and
		// was grafted, not locally synthesized.
		serve := findSpan(rpc.Children, "serve")
		if serve == nil {
			t.Fatalf("RPC span for %s has no remote serve span: %+v", srv.URL, rpc.Children)
		}
		if findSpan(serve.Children, "nn_probes") == nil {
			t.Fatalf("remote serve span for %s lost its nn_probes child: %+v", srv.URL, serve.Children)
		}
	}
	// Depth: query → shard_nn → nn:<url> → serve → nn_probes ≥ 5.
	if d := maxDepth(got.Trace); d < 5 {
		t.Fatalf("stitched trace depth %d, want >= 5", d)
	}
}

// mangleTrace wraps an engine-server handler, rewriting the trace field
// of every /shard/ response to hostile JSON — a byzantine shard that
// answers queries correctly but lies in its telemetry.
func mangleTrace(inner http.Handler, garbage string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/shard/") {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		var m map[string]json.RawMessage
		if rec.Code == http.StatusOK && json.Unmarshal(body, &m) == nil {
			m["trace"] = json.RawMessage(garbage)
			body, _ = json.Marshal(m)
		}
		for k, vs := range rec.Header() {
			if k == "Content-Length" {
				continue
			}
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestScatterByzantineFragment: a shard returning garbage trace
// fragments — wrong JSON type, oversized blobs — never breaks the
// query: the answer stays correct, the fragment is dropped and counted
// in coskq_shard_fragment_drops_total, and nothing panics.
func TestScatterByzantineFragment(t *testing.T) {
	parts, all := districts()
	garbage := []string{
		`[1,2,3]`,
		fmt.Sprintf(`{"name":"serve","durUs":1,"spans":[%s]}`,
			strings.TrimSuffix(strings.Repeat(`{"name":"s","startUs":0,"durUs":1},`, trace.MaxFragmentSpans+1), ",")),
		`{"name":"serve","durUs":"NaN"}`,
	}
	for gi, g := range garbage {
		t.Run(fmt.Sprintf("garbage-%d", gi), func(t *testing.T) {
			backends := make([]shard.Backend, len(parts))
			var evilURL string
			for i, ds := range parts {
				h := http.Handler(NewWith(core.NewEngine(ds, 0), Options{}))
				if i == 1 {
					h = mangleTrace(h, g)
				}
				srv := httptest.NewServer(h)
				t.Cleanup(srv.Close)
				if i == 1 {
					evilURL = srv.URL
				}
				backends[i] = shard.NewHTTPBackend(&client.Client{Base: srv.URL, MaxRetries: -1})
			}
			coord := httptest.NewServer(NewScatterGather(&shard.Router{Backends: backends}, Options{}))
			t.Cleanup(coord.Close)

			want := oracleQuery(t, core.NewEngine(all, 0), geo.Point{X: 50, Y: 30}, []string{"cafe", "museum", "park"})
			var got queryResponse
			getJSON(t, coord.URL+"/query?x=50&y=30&kw=cafe,museum,park&explain=1", http.StatusOK, &got)
			if got.Cost != want.Cost {
				t.Fatalf("byzantine fragment corrupted the answer: cost %v, oracle %v", got.Cost, want.Cost)
			}
			if got.Trace == nil {
				t.Fatal("explain lost the whole trace over one bad fragment")
			}
			// The honest shards' fragments still stitched.
			if findSpan(got.Trace.Spans, "nn_probes") == nil {
				t.Fatal("honest shards' fragments not stitched")
			}
			// The liar's fragment was dropped, not grafted, and counted.
			evil := findSpan(got.Trace.Spans, "nn:"+evilURL)
			if evil == nil {
				t.Fatal("RPC span for the byzantine shard missing")
			}
			if findSpan(evil.Children, "serve") != nil {
				t.Fatalf("garbage fragment was grafted: %+v", evil.Children)
			}
			page := getBody(t, coord.URL+"/metrics")
			wantCounter := fmt.Sprintf("coskq_shard_fragment_drops_total{shard=%q}", evilURL)
			if !strings.Contains(page, wantCounter) {
				t.Fatalf("dropped fragment not counted; no %s in:\n%s", wantCounter, page)
			}
		})
	}
}

// TestScatterSlowLogShardBreakdown: scatter-gather queries land in the
// coordinator slowlog with a per-shard call breakdown — shard, phase and
// elapsed per call.
func TestScatterSlowLogShardBreakdown(t *testing.T) {
	coord, shards, _ := scatterFleet(t, core.DegradeFail)
	var qr queryResponse
	getJSON(t, coord.URL+"/query?x=50&y=30&kw=cafe,museum,park", http.StatusOK, &qr)

	var got slowLogResponse
	getJSON(t, coord.URL+"/debug/slowlog", http.StatusOK, &got)
	if len(got.Entries) != 1 {
		t.Fatalf("%d slowlog entries, want 1", len(got.Entries))
	}
	e := got.Entries[0]
	nn, collect := 0, 0
	for _, c := range e.Shards {
		switch c.Phase {
		case "nn":
			nn++
		case "collect":
			collect++
		default:
			t.Fatalf("unknown phase in shard breakdown: %+v", c)
		}
		if c.Shard == "" || c.ElapsedMs < 0 {
			t.Fatalf("malformed shard call record: %+v", c)
		}
	}
	if nn != len(shards) || collect == 0 {
		t.Fatalf("breakdown has %d nn + %d collect calls (shards=%d): %+v", nn, collect, len(shards), e.Shards)
	}
}

// TestScatterHeaderPropagation: the coordinator forwards the request id
// on every shard call; for an explained query it also mints a
// traceparent per RPC — same trace id, distinct span ids — and for a
// plain one none.
func TestScatterHeaderPropagation(t *testing.T) {
	parts, _ := districts()
	type seen struct {
		id string
		sc trace.SpanContext
	}
	var (
		mu    sync.Mutex
		calls []seen
	)
	backends := make([]shard.Backend, len(parts))
	for i, ds := range parts {
		inner := NewWith(core.NewEngine(ds, 0), Options{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/shard/") && r.URL.Path != "/shard/meta" {
				sc, _ := trace.ParseTraceparent(r.Header.Get("Traceparent"))
				mu.Lock()
				calls = append(calls, seen{id: r.Header.Get("X-Request-Id"), sc: sc})
				mu.Unlock()
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		backends[i] = shard.NewHTTPBackend(&client.Client{Base: srv.URL, MaxRetries: -1})
	}
	coord := httptest.NewServer(NewScatterGather(&shard.Router{Backends: backends}, Options{}))
	t.Cleanup(coord.Close)

	// query sends one coordinator query under the client's request id
	// and returns the shard calls it made.
	query := func(params string) []seen {
		mu.Lock()
		calls = nil
		mu.Unlock()
		req, _ := http.NewRequest(http.MethodGet, coord.URL+"/query?x=50&y=30&kw=cafe,museum,park"+params, nil)
		req.Header.Set("X-Request-Id", "e2e-req-7")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		// A valid client-supplied id is adopted, echoed back, and forwarded.
		if got := resp.Header.Get("X-Request-Id"); got != "e2e-req-7" {
			t.Fatalf("coordinator echoed id %q, want the client's", got)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(calls) < 4 {
			t.Fatalf("recorded %d shard calls, want nn+collect fan-out", len(calls))
		}
		for _, c := range calls {
			if c.id != "e2e-req-7" {
				t.Fatalf("shard call carried id %q, want the client's", c.id)
			}
		}
		return calls
	}

	// An untraced query sends no traceparent: its shards build no fragment.
	for _, c := range query("") {
		if c.sc.Valid() {
			t.Fatalf("untraced query's shard call carried traceparent %+v", c.sc)
		}
	}

	explained := query("&explain=1")
	spanIDs := map[[8]byte]bool{}
	for _, c := range explained {
		if !c.sc.Valid() {
			t.Fatal("shard call carried no valid traceparent")
		}
		if c.sc.TraceID != explained[0].sc.TraceID {
			t.Fatal("shard calls split across trace ids")
		}
		spanIDs[c.sc.SpanID] = true
	}
	if len(spanIDs) != len(explained) {
		t.Fatalf("%d distinct span ids across %d calls, want all distinct", len(spanIDs), len(explained))
	}

	// An unparseable inbound id is replaced, not forwarded.
	req2, _ := http.NewRequest(http.MethodGet, coord.URL+"/query?x=0&y=0&kw=cafe", nil)
	req2.Header.Set("X-Request-Id", `evil id "with spaces"`)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got == "" || strings.Contains(got, " ") || strings.Contains(got, "evil") {
		t.Fatalf("hostile request id handled wrong: %q", got)
	}
}

// TestFederatedMetrics: the coordinator's /metrics?federate=1 merges
// every live peer's exposition under shard labels alongside its own
// unlabeled page; a dead peer degrades to a comment plus an error
// counter, never a failed scrape. Leak-checked: the fan-out goroutines
// must all drain.
func TestFederatedMetrics(t *testing.T) {
	defer testutil.CheckGoroutineLeaks(t)
	coord, shards, _ := scatterFleet(t, core.DegradeFail)
	var qr queryResponse
	getJSON(t, coord.URL+"/query?x=50&y=30&kw=cafe,museum,park", http.StatusOK, &qr)

	page := getBody(t, coord.URL+"/metrics?federate=1")
	for _, srv := range shards {
		if !strings.Contains(page, fmt.Sprintf("shard=%q", srv.URL)) {
			t.Fatalf("no samples labeled for peer %s in:\n%s", srv.URL, page)
		}
	}
	// The coordinator's own routing metrics pass through unlabeled (their
	// shard label is the one the router minted, not a federation label).
	if !strings.Contains(page, "coskq_shard_rpc_seconds_count{") {
		t.Fatalf("local coordinator page lost in merge:\n%s", page)
	}
	if strings.Contains(page, "# federate:") {
		t.Fatalf("healthy fleet produced a federate failure comment:\n%s", page)
	}
	// Plain scrape is unchanged: no peer pages, no federation comments.
	plain := getBody(t, coord.URL+"/metrics")
	if strings.Contains(plain, "coskq_http_requests_total{shard=") {
		t.Fatalf("non-federate scrape contains peer samples:\n%s", plain)
	}

	shards[2].Close()
	page = getBody(t, coord.URL+"/metrics?federate=1")
	if !strings.Contains(page, fmt.Sprintf("# federate: source %q failed", shards[2].URL)) {
		t.Fatalf("dead peer not noted in merged page:\n%s", page)
	}
	if !strings.Contains(page, fmt.Sprintf("coskq_federate_peer_errors_total{shard=%q} 1", shards[2].URL)) {
		t.Fatalf("dead peer fetch not counted:\n%s", page)
	}
	// Live peers still contribute.
	if !strings.Contains(page, fmt.Sprintf("shard=%q", shards[0].URL)) {
		t.Fatalf("live peer lost after another died:\n%s", page)
	}
}

// TestScatterDifferentialWithTracing: with tracing forced on every
// request (explain=1), the scatter answer still matches the oracle at
// several locations — observability must not perturb the data plane.
func TestScatterDifferentialWithTracing(t *testing.T) {
	coord, _, eng := scatterFleet(t, core.DegradeFail)
	words := []string{"cafe", "museum", "park"}
	for _, loc := range []geo.Point{{X: 50, Y: 30}, {X: 0, Y: 0}, {X: 120, Y: -5}, {X: 50, Y: 80}} {
		want := oracleQuery(t, eng, loc, words)
		var got queryResponse
		getJSON(t, fmt.Sprintf("%s/query?x=%v&y=%v&kw=cafe,museum,park&explain=1", coord.URL, loc.X, loc.Y),
			http.StatusOK, &got)
		if got.Cost != want.Cost {
			t.Fatalf("loc %v: traced scatter cost %v, oracle %v", loc, got.Cost, want.Cost)
		}
		if got.Trace == nil {
			t.Fatalf("loc %v: no trace", loc)
		}
	}
}
