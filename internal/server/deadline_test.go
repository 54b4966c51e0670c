package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"coskq/internal/core"
	"coskq/internal/geo"
	"coskq/internal/metrics"
)

// deadlineSolver is a solve that observes its context: it returns only
// when the context ends, with the context's error.
type deadlineSolver struct{}

func (deadlineSolver) SolveWords(ctx context.Context, _ geo.Point, _ []string, _ core.CostKind, _ core.Method) (core.Answer, error) {
	<-ctx.Done()
	return core.Answer{}, ctx.Err()
}

// TestDeadlineDecidedAtCommit drives the full New stack under a short
// Timeout, one row per way a request can meet its deadline. The deadline
// is decided when the handler commits: before it, the handler's answer
// goes out whole; after it, the client gets the JSON 504 (503 for a
// disconnect) and none of the handler's bytes. Each row also checks that
// the access log's status= and the coskq_http_requests_total series
// record the status actually sent.
func TestDeadlineDecidedAtCommit(t *testing.T) {
	for _, tc := range []struct {
		name       string
		path       string
		handler    http.HandlerFunc // mounted at path; nil serves path on deadlineSolver
		disconnect bool             // the client went away before the answer
		slowBody   bool             // POST path through a listener, its body stalled
		aborted    bool             // the connection is aborted after the handler's bytes
		status     int              // the status sent (logged and counted)
		header     string           // a response header that must be present ("" = none)
		body       string           // the exact body, or "" for the JSON error envelope
		says       string           // what the envelope's error must say ("" = anything)
		absent     string           // what must not reach the client
		logs       string           // what the server log must hold besides the access line
	}{
		{
			name:   "solve observes the deadline",
			path:   "/query?x=0&y=0&kw=cafe",
			status: http.StatusGatewayTimeout,
		},
		{
			name: "fast handler passes through",
			path: "/test/fast",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("X-Fast", "yes")
				w.WriteHeader(http.StatusTeapot)
				io.WriteString(w, "brewing")
			},
			status: http.StatusTeapot,
			header: "X-Fast",
			body:   "brewing",
		},
		{
			name: "committed before the deadline",
			path: "/test/early",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("X-Early", "yes")
				w.WriteHeader(http.StatusTeapot)
				io.WriteString(w, "brewing ")
				<-r.Context().Done()
				io.WriteString(w, "done")
			},
			status: http.StatusTeapot,
			header: "X-Early",
			body:   "brewing done",
		},
		{
			name: "writes only after the deadline",
			path: "/test/late",
			handler: func(w http.ResponseWriter, r *http.Request) {
				<-r.Context().Done()
				w.Header().Set("X-Late", "yes")
				w.WriteHeader(http.StatusOK)
				io.WriteString(w, "late answer")
			},
			status: http.StatusGatewayTimeout,
			says:   "server timeout",
			absent: "late answer",
		},
		{
			name: "client disconnects",
			path: "/test/gone",
			handler: func(w http.ResponseWriter, r *http.Request) {
				<-r.Context().Done()
			},
			disconnect: true,
			status:     http.StatusServiceUnavailable,
			says:       "disconnected",
		},
		{
			name: "handler panics",
			path: "/test/panic",
			handler: func(w http.ResponseWriter, r *http.Request) {
				panic("boom")
			},
			status: http.StatusInternalServerError,
			logs:   "panic=boom",
		},
		{
			name: "handler panics after committing",
			path: "/test/partial",
			handler: func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, "partial")
				panic("boom")
			},
			aborted: true,
			status:  http.StatusInternalServerError,
			body:    "partial",
		},
		{
			// The deadline context cannot interrupt a body read; the
			// connection's read deadline does, so the admission slot the
			// read holds is free again at the deadline.
			name:     "batch body arrives slowly",
			path:     "/batch",
			slowBody: true,
			status:   http.StatusGatewayTimeout,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var logged strings.Builder
			reg := metrics.NewRegistry()
			var h http.Handler
			opts := Options{Timeout: 20 * time.Millisecond, Logger: slog.New(slog.NewTextHandler(&syncWriter{w: &logged}, nil)), Registry: reg}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.disconnect {
				// The request context ends by the client going away,
				// long before the deadline.
				opts.Timeout = time.Hour
				cancel()
			}
			route, _, _ := strings.Cut(tc.path, "?")
			switch {
			case tc.slowBody:
				// One admission slot and no queue: a slot still held
				// by the stalled /batch sheds the /query after it.
				opts.Timeout = 200 * time.Millisecond
				opts.MaxInFlight = 1
				h = New(cityEngine(), opts)
			case tc.handler == nil:
				h = New(deadlineSolver{}, opts)
			default:
				h = New(cityEngine(), opts)
				h.(*server).mux.HandleFunc("GET "+tc.path, tc.handler)
				route = "other"
			}

			var (
				code int
				hdr  http.Header
				body string
			)
			if tc.slowBody {
				code, hdr, body = serveSlowBody(t, h, tc.path, opts.Timeout)
			} else {
				req := httptest.NewRequest(http.MethodGet, tc.path, nil).WithContext(ctx)
				rec := httptest.NewRecorder()
				func() {
					defer func() {
						if p := recover(); p != nil && !(tc.aborted && p == http.ErrAbortHandler) {
							t.Fatalf("handler stack panicked: %v", p)
						} else if p == nil && tc.aborted {
							t.Fatal("a panic after commit did not abort the connection")
						}
					}()
					h.ServeHTTP(rec, req)
				}()
				code, hdr, body = rec.Code, rec.Header(), rec.Body.String()
				if !tc.aborted && code != tc.status {
					t.Fatalf("status %d, want %d (body %q)", code, tc.status, body)
				}
				if tc.body == "" && len(hdr) != 2 { // X-Request-Id and Content-Type
					t.Errorf("headers %v: the handler's leaked onto the error", hdr)
				}
			}

			if tc.header != "" && hdr.Get(tc.header) == "" {
				t.Errorf("header %s missing: %v", tc.header, hdr)
			}
			if hdr.Get("X-Request-Id") == "" {
				t.Error("X-Request-Id missing")
			}
			if tc.body != "" {
				if body != tc.body {
					t.Errorf("body %q, want %q", body, tc.body)
				}
			} else {
				if ct := hdr.Get("Content-Type"); ct != "application/json" {
					t.Errorf("content type %q, want the JSON envelope", ct)
				}
				var env map[string]string
				if err := json.Unmarshal([]byte(body), &env); err != nil || env["error"] == "" || !strings.Contains(env["error"], tc.says) {
					t.Errorf("body %q, want a JSON error saying %q", body, tc.says)
				}
			}
			if !strings.Contains(logged.String(), tc.logs) {
				t.Errorf("server log %q missing %q", logged.String(), tc.logs)
			}
			if tc.absent != "" && strings.Contains(body, tc.absent) {
				t.Errorf("body %q carries the handler's bytes %q", body, tc.absent)
			}

			if want := " status=" + strconv.Itoa(tc.status) + " "; !strings.Contains(logged.String(), want) {
				t.Errorf("access log %q missing %q", logged.String(), want)
			}
			var exp strings.Builder
			reg.WriteText(&exp)
			series := `coskq_http_requests_total{path="` + route + `",status="` + strconv.Itoa(tc.status) + `"} 1` + "\n"
			if !strings.Contains(exp.String(), series) {
				t.Errorf("exposition missing %q:\n%s", series, exp.String())
			}
		})
	}
}

// serveSlowBody POSTs to path on a listener serving h, the body's first
// bytes sent and the rest stalled for 5 s (a broken deadline then fails
// the test instead of hanging it). The reply must
// come at about the deadline d and close the connection; a /query sent
// right after must find the admission slot free. It returns the POST's
// reply.
func serveSlowBody(t *testing.T, h http.Handler, path string, d time.Duration) (int, http.Header, string) {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	pr, pw := io.Pipe()
	defer pw.Close()
	go pw.Write([]byte(`{"method":"appro","queries":[`))
	stall := time.AfterFunc(5*time.Second, func() { pw.CloseWithError(errors.New("body stalled")) })
	defer stall.Stop()
	req, err := http.NewRequest(http.MethodPost, srv.URL+path, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = 1 << 10
	client := &http.Client{Timeout: 10 * time.Second}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("slow body: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < d || elapsed > d+2*time.Second {
		t.Errorf("reply after %v, want about the %v deadline", elapsed, d)
	}
	if !resp.Close {
		t.Error("the reply to a body cut at the deadline leaves the connection open")
	}

	q, err := client.Get(srv.URL + "/query?x=0&y=0&kw=cafe&method=appro")
	if err != nil {
		t.Fatal(err)
	}
	q.Body.Close()
	if q.StatusCode != http.StatusOK {
		t.Errorf("/query after the slow body: status %d, want 200 (admission slot still held?)", q.StatusCode)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// TestDeadlineKeepsConnectionReusable: a request that runs into its
// deadline, its body read or no body at all, leaves its keep-alive
// connection serving the next request with a live context. A read
// deadline left on the connection past the body would cancel the
// connection's context when net/http's background read times out, and
// every later request on it would fail.
func TestDeadlineKeepsConnectionReusable(t *testing.T) {
	h := New(cityEngine(), Options{Timeout: 50 * time.Millisecond})
	wait := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}
	h.(*server).mux.HandleFunc("GET /test/wait", wait)
	h.(*server).mux.HandleFunc("POST /test/wait", wait)
	srv := httptest.NewServer(h)
	defer srv.Close()

	for _, method := range []string{http.MethodGet, http.MethodPost} {
		var body io.Reader
		if method == http.MethodPost {
			body = strings.NewReader(`{"payload":"read in full"}`)
		}
		req, _ := http.NewRequest(method, srv.URL+"/test/wait", body)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want 504", method, resp.StatusCode)
		}
		// Outlast the deadline on the idle connection, then reuse it.
		time.Sleep(60 * time.Millisecond)
		var reused bool
		trace := &httptrace.ClientTrace{GotConn: func(c httptrace.GotConnInfo) { reused = c.Reused }}
		req, _ = http.NewRequest(http.MethodGet, srv.URL+"/query?x=0&y=0&kw=cafe&method=appro", nil)
		resp, err = srv.Client().Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if !reused {
			t.Errorf("after a %s past its deadline: the connection was not reused", method)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("after a %s past its deadline: next request on the connection got %d, want 200", method, resp.StatusCode)
		}
	}
}

// syncWriter serialises writes to w: a listener's requests log from
// their own goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
