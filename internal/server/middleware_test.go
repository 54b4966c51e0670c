package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/metrics"
)

func TestHealthzEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var got map[string]any
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &got)
	if got["status"] != "ok" || got["dataset"] != "city" || got["objects"] != float64(4) {
		t.Fatalf("healthz = %v", got)
	}
}

// TestMetricsEndpoint is the acceptance check: after serving a query,
// /metrics must expose nonzero query counters and latency histogram
// buckets, covering both the engine sink and the HTTP layer.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var q queryResponse
	getJSON(t, srv.URL+"/query?x=0&y=0&kw=cafe,museum", http.StatusOK, &q)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"coskq_queries_total 1\n",
		`coskq_queries_total{cost="MaxSum",method="OwnerExact"} 1` + "\n",
		`coskq_http_requests_total{path="/query",status="200"} 1` + "\n",
		"# TYPE coskq_query_seconds histogram\n",
		"coskq_query_seconds_count 1\n",
		`coskq_query_seconds_bucket{le="+Inf"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsCountsErrorRequests(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/query?x=abc&y=0&kw=cafe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if want := `coskq_http_requests_total{path="/query",status="400"} 1`; !strings.Contains(string(body), want) {
		t.Fatalf("exposition missing %q:\n%s", want, body)
	}
}

// TestServerTimeoutEndToEnd configures the full stack with an expired
// deadline: whichever side wins the race — the middleware's 504 or the
// handler observing the dead context — the client sees 504.
func TestServerTimeoutEndToEnd(t *testing.T) {
	b := dataset.NewBuilder("city")
	b.Add(geo.Point{X: 1, Y: 0}, "cafe")
	eng := core.NewEngine(b.Build(), 0)
	srv := httptest.NewServer(NewWith(eng, Options{Timeout: time.Nanosecond}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query?x=0&y=0&kw=cafe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// stackWith mounts h at GET /test/h on the full New stack.
func stackWith(opts Options, h http.HandlerFunc) http.Handler {
	s := New(cityEngine(), opts)
	s.(*server).mux.HandleFunc("GET /test/h", h)
	return s
}

// TestTimeoutMiddlewareSlowHandler: a slow handler behind the stack's
// deadline gives the client a JSON 504 at the deadline, long before the
// handler finishes.
func TestTimeoutMiddlewareSlowHandler(t *testing.T) {
	release := make(chan struct{})
	slow := func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // what a cancellation-aware handler does
		case <-release: // guard against a hung context
		}
		w.WriteHeader(http.StatusOK)
	}
	defer close(release)
	srv := httptest.NewServer(stackWith(Options{Timeout: 30 * time.Millisecond}, slow))
	defer srv.Close()

	start := time.Now()
	resp, err := http.Get(srv.URL + "/test/h")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("504 body not JSON: %v", err)
	}
	if body["error"] == "" {
		t.Fatal("504 body has no error message")
	}
}

// TestRecoverMiddleware: a panicking handler yields a JSON 500 and the
// panic is logged, not propagated to the connection.
func TestRecoverMiddleware(t *testing.T) {
	var logged strings.Builder
	boom := func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}
	srv := httptest.NewServer(stackWith(Options{Logger: slog.New(slog.NewTextHandler(&syncWriter{w: &logged}, nil))}, boom))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/test/h")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(logged.String(), "boom") {
		t.Fatal("panic not logged")
	}
}

// TestRecoverMiddlewareThroughTimeout: a panic in a handler running
// under a deadline surfaces through the full stack as a 500, not a
// crashed process.
func TestRecoverMiddlewareThroughTimeout(t *testing.T) {
	boom := func(w http.ResponseWriter, r *http.Request) {
		panic("deep boom")
	}
	srv := httptest.NewServer(stackWith(Options{Timeout: time.Second}, boom))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/test/h")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
}

// TestTimeoutMiddlewareClientDisconnect: a dropped connection is
// distinguished from a deadline — 503, not the deadline's 504 — still
// via the JSON envelope.
func TestTimeoutMiddlewareClientDisconnect(t *testing.T) {
	entered := make(chan struct{})
	slow := func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done()
	}
	rec := httptest.NewRecorder()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/test/h", nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		stackWith(Options{Timeout: time.Hour}, slow).ServeHTTP(rec, req)
		close(done)
	}()
	<-entered
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the stack did not return after client disconnect")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 for client disconnect", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q, want the JSON envelope", ct)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body["error"], "disconnected") {
		t.Fatalf("body %q, want a disconnect JSON error", rec.Body.String())
	}
}

func TestRequestLogging(t *testing.T) {
	var logged strings.Builder
	b := dataset.NewBuilder("city")
	b.Add(geo.Point{X: 1, Y: 0}, "cafe")
	eng := core.NewEngine(b.Build(), 0)
	srv := httptest.NewServer(NewWith(eng, Options{Logger: slog.New(slog.NewTextHandler(&logged, nil))}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line := logged.String()
	for _, want := range []string{"method=GET", "uri=/healthz", "status=200", "id="} {
		if !strings.Contains(line, want) {
			t.Fatalf("log line %q missing %q", line, want)
		}
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("missing X-Request-Id response header")
	}
}

// TestConcurrentRequestsAndBatch races HTTP requests against a
// SolveBatch on the same shared engine (run with -race); afterwards the
// shared metrics sink must have counted every execution exactly.
func TestConcurrentRequestsAndBatch(t *testing.T) {
	reg := metrics.NewRegistry()
	b := dataset.NewBuilder("city")
	b.Add(geo.Point{X: 1, Y: 0}, "cafe")
	b.Add(geo.Point{X: 0, Y: 2}, "museum")
	b.Add(geo.Point{X: 2, Y: 2}, "cafe", "museum")
	eng := core.NewEngine(b.Build(), 0)
	srv := httptest.NewServer(NewWith(eng, Options{Registry: reg, Timeout: 10 * time.Second}))
	defer srv.Close()

	const clients = 4
	const perClient = 15
	batchQueries := make([]core.Query, 40)
	for i := range batchQueries {
		batchQueries[i] = core.Query{Loc: geo.Point{}, Keywords: kwset(eng, "cafe", "museum")}
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Get(srv.URL + "/query?x=0&y=0&kw=cafe,museum")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng.SolveBatch(batchQueries, core.Dia, core.OwnerAppro, 4)
	}()
	wg.Wait()

	want := uint64(clients*perClient + len(batchQueries))
	if got := eng.Metrics.QueriesTotal(); got != want {
		t.Fatalf("coskq_queries_total = %d, want exactly %d", got, want)
	}
}
