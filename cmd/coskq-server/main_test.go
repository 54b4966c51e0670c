package main

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// lockedBuffer is a log sink the server's goroutines and the test share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestHTTPServerErrorsAreSlog: a message net/http itself logs — here a
// superfluous WriteHeader — arrives as a structured error record.
func TestHTTPServerErrorsAreSlog(t *testing.T) {
	var out lockedBuffer
	logger := slog.New(slog.NewJSONHandler(&out, nil))
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.WriteHeader(http.StatusTeapot)
	}), logger)
	ts.Start()
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := out.String()
	if !strings.Contains(got, `"level":"ERROR"`) || !strings.Contains(got, "superfluous response.WriteHeader") {
		t.Fatalf("net/http error not logged as a slog error record; log:\n%s", got)
	}
}

// TestModeFlagsCheck: every single-engine flag is rejected beside -shards
// N > 1 and beside -peers, naming both flags; single-engine and default
// combinations pass.
func TestModeFlagsCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    modeFlags
		want string // substring of the error; "" means accepted
	}{
		{"single engine, every flag", modeFlags{shards: 1, live: true, nnCache: 4096, backlog: 64, compact: 0.5}, ""},
		{"shards alone", modeFlags{shards: 4}, ""},
		{"peers alone", modeFlags{peers: "http://a"}, ""},
		{"live with shards", modeFlags{shards: 4, live: true}, "-live is single-engine only and cannot be combined with -shards 4"},
		{"nn-cache with shards", modeFlags{shards: 2, nnCache: 4096}, "-nn-cache is single-engine only and cannot be combined with -shards 2"},
		{"ingest-backlog with shards", modeFlags{shards: 4, backlog: 64}, "-ingest-backlog"},
		{"compact-frac with shards", modeFlags{shards: 4, compact: -1}, "-compact-frac"},
		{"live with peers", modeFlags{peers: "http://a", live: true}, "-live is single-engine only and cannot be combined with -peers"},
		{"nn-cache with peers", modeFlags{peers: "http://a", nnCache: 16}, "-nn-cache is single-engine only and cannot be combined with -peers"},
		{"ingest-backlog with peers", modeFlags{peers: "http://a", backlog: 1}, "-ingest-backlog"},
		{"compact-frac with peers", modeFlags{peers: "http://a", compact: 0.1}, "-compact-frac"},
	} {
		err := tc.m.check()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
