package main

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
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

// TestModeFlagsCheck: every flag the chosen mode would ignore is
// rejected, naming both flags — the single-engine flags beside -shards
// N > 1 and beside -peers, -partition without -shards N > 1,
// -shard-timeout without a fleet, -data and -shards beside -peers — and
// the combinations each mode reads pass.
func TestModeFlagsCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    modeFlags
		want string // substring of the error; "" means accepted
	}{
		{"single engine, every flag", modeFlags{shards: 1, data: "d.gob", live: true, nnCache: 4096, backlog: 64}, ""},
		{"shards, every flag", modeFlags{shards: 4, data: "d.gob", partition: "subtree", shardTO: time.Second}, ""},
		{"peers, every flag", modeFlags{peers: "http://a", shardTO: time.Second}, ""},
		{"partition without shards", modeFlags{shards: 1, data: "d.gob", partition: "subtree"}, "-partition only applies with -shards > 1"},
		{"partition with peers", modeFlags{peers: "http://a", partition: "grid"}, "-partition only applies with -shards > 1"},
		{"shard-timeout without a fleet", modeFlags{shards: 1, data: "d.gob", shardTO: time.Second}, "-shard-timeout only applies with -shards > 1 or -peers"},
		{"data with peers", modeFlags{peers: "http://a", data: "d.gob"}, "-data cannot be combined with -peers"},
		{"shards with peers", modeFlags{peers: "http://a", shards: 4}, "-shards 4 cannot be combined with -peers"},
		{"live with shards", modeFlags{shards: 4, live: true}, "-live is single-engine only and cannot be combined with -shards 4"},
		{"nn-cache with shards", modeFlags{shards: 2, nnCache: 4096}, "-nn-cache is single-engine only and cannot be combined with -shards 2"},
		{"ingest-backlog with shards", modeFlags{shards: 4, backlog: 64}, "-ingest-backlog"},
		{"live with peers", modeFlags{peers: "http://a", live: true}, "-live is single-engine only and cannot be combined with -peers"},
		{"nn-cache with peers", modeFlags{peers: "http://a", nnCache: 16}, "-nn-cache is single-engine only and cannot be combined with -peers"},
		{"ingest-backlog with peers", modeFlags{peers: "http://a", backlog: 1}, "-ingest-backlog"},
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
