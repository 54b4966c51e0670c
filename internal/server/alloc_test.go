package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"coskq/internal/core"
	"coskq/internal/shard"
	"coskq/internal/trace"
)

// discardWriter is a reusable http.ResponseWriter that keeps the status
// and counts the body, so a measured run allocates only what the handler
// stack does.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}
func (w *discardWriter) reset() {
	clear(w.h)
	w.status, w.n = 0, 0
}

// TestQueryHandlerAllocs pins the allocations of one request through the
// whole handler stack, configured as coskq-server configures it: a 30 s
// timeout, the default slow log and a logger (to io.Discard), over an
// engine and over a coordinator routing to four in-process shards. The
// slow log is filled with entries no request outruns first, so every
// measured request takes its steady-state path: untraced, and not
// retained. The ceilings are the counts measured with the stack on the
// connection's goroutine and GOMAXPROCS 2 (/query 37; the routed /query
// 84; /batch 1,420 to 1,421, whose workers' pool misses vary by one, under
// 1,430): a worker goroutine with its channels and buffered response (+8
// per request) trips every row, a fmt.Sprintf request id (+1) the /query
// rows, tracing every request (45 on the engine, 215 routed) both /query
// rows, and one more allocation per batch item (+64) the /batch row.
func TestQueryHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	// /batch runs GOMAXPROCS workers, each with its own goroutine and
	// per-P pool misses: fix the count so the ceiling holds on any host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	handler := func(sv core.Solver) http.Handler {
		h := New(sv, Options{
			Timeout: 30 * time.Second,
			Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		s := h.(*server)
		for i := 0; i < s.slow.Cap(); i++ {
			s.slow.Observe(trace.Entry{Query: "fill", ElapsedMs: math.MaxFloat64})
		}
		return h
	}
	h := handler(gridEngine())
	rt, err := shard.NewLocalRouter(gridEngine().DS, 4, shard.Subtree(), 0)
	if err != nil {
		t.Fatal(err)
	}
	routed := handler(rt)

	queries := make([]batchQueryJSON, 64)
	words := []string{"cafe", "museum", "park", "inn"}
	for i := range queries {
		queries[i] = batchQueryJSON{X: float64(i % 24), Y: float64(i * 7 % 24), Kw: words[:1+i%3]}
	}
	batch, err := json.Marshal(batchRequest{Method: "appro", Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.NewReader(batch)
	const query = "/query?x=10&y=10&kw=cafe,museum&method=appro"

	for _, tc := range []struct {
		name      string
		h         http.Handler
		req       *http.Request
		maxAllocs float64
	}{
		{"query", h, httptest.NewRequest(http.MethodGet, query, nil), 37},
		{"routed query", routed, httptest.NewRequest(http.MethodGet, query, nil), 84},
		{"batch", h, httptest.NewRequest(http.MethodPost, "/batch", io.NopCloser(body)), 1430},
	} {
		w := &discardWriter{h: make(http.Header)}
		serve := func() {
			body.Reset(batch)
			w.reset()
			tc.h.ServeHTTP(w, tc.req)
			if w.status != http.StatusOK || w.n == 0 {
				t.Fatalf("%s: status %d, %d body bytes", tc.name, w.status, w.n)
			}
		}
		for i := 0; i < 20; i++ {
			serve()
		}
		got := testing.AllocsPerRun(200, serve)
		t.Logf("%s: %.1f allocs/request", tc.name, got)
		if got > tc.maxAllocs {
			t.Errorf("%s: %.1f allocs/request, want ≤ %.0f", tc.name, got, tc.maxAllocs)
		}
	}
}
