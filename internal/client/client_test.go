package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedServer replies with each scripted response in turn, then
// repeats the last one.
type scriptedServer struct {
	t       *testing.T
	replies []func(w http.ResponseWriter)
	calls   atomic.Int64
}

func (s *scriptedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i := int(s.calls.Add(1)) - 1
	if i >= len(s.replies) {
		i = len(s.replies) - 1
	}
	s.replies[i](w)
}

func shed(retryAfter string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": "server overloaded"})
	}
}

func status(code int, msg string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]string{"error": msg})
	}
}

func ok(resp ShardMetaResponse) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	}
}

// instantClient returns a client against srv whose backoff waits are
// captured instead of slept.
func instantClient(srv *httptest.Server, waits *[]time.Duration) *Client {
	return &Client{
		Base: srv.URL,
		sleep: func(ctx context.Context, d time.Duration) error {
			*waits = append(*waits, d)
			return ctx.Err()
		},
	}
}

func TestRetriesUntilSuccess(t *testing.T) {
	s := &scriptedServer{t: t, replies: []func(http.ResponseWriter){
		shed(""),
		status(http.StatusServiceUnavailable, "budget"),
		ok(ShardMetaResponse{Objects: 42, Name: "s1"}),
	}}
	srv := httptest.NewServer(s)
	defer srv.Close()
	var waits []time.Duration
	c := instantClient(srv, &waits)

	res, err := c.ShardMeta(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Objects != 42 {
		t.Errorf("objects = %d, want 42", res.Objects)
	}
	if got := s.calls.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
	if len(waits) != 2 {
		t.Fatalf("backoff waits = %v, want 2", waits)
	}
	// Jittered exponential: attempt 0 in [50ms, 100ms], attempt 1 in
	// [100ms, 200ms].
	if waits[0] < DefaultBaseBackoff/2 || waits[0] > DefaultBaseBackoff {
		t.Errorf("first backoff %v outside [%v, %v]", waits[0], DefaultBaseBackoff/2, DefaultBaseBackoff)
	}
	if waits[1] < DefaultBaseBackoff || waits[1] > 2*DefaultBaseBackoff {
		t.Errorf("second backoff %v outside [%v, %v]", waits[1], DefaultBaseBackoff, 2*DefaultBaseBackoff)
	}
}

func TestHonorsRetryAfter(t *testing.T) {
	s := &scriptedServer{t: t, replies: []func(http.ResponseWriter){
		shed("3"),
		ok(ShardMetaResponse{}),
	}}
	srv := httptest.NewServer(s)
	defer srv.Close()
	var waits []time.Duration
	c := instantClient(srv, &waits)
	if _, err := c.ShardMeta(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(waits) != 1 || waits[0] != 3*time.Second {
		t.Fatalf("waits = %v, want exactly the 3s Retry-After hint", waits)
	}
}

func TestNonRetryableFailsFast(t *testing.T) {
	for _, code := range []int{http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusNotFound} {
		s := &scriptedServer{t: t, replies: []func(http.ResponseWriter){status(code, "nope")}}
		srv := httptest.NewServer(s)
		var waits []time.Duration
		c := instantClient(srv, &waits)
		_, err := c.ShardMeta(context.Background())
		srv.Close()
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != code || apiErr.Message != "nope" {
			t.Fatalf("code %d: err = %v, want APIError with that status", code, err)
		}
		if s.calls.Load() != 1 || len(waits) != 0 {
			t.Fatalf("code %d: %d attempts %v waits, want exactly one attempt", code, s.calls.Load(), waits)
		}
	}
}

func TestRetriesExhausted(t *testing.T) {
	s := &scriptedServer{t: t, replies: []func(http.ResponseWriter){shed("")}}
	srv := httptest.NewServer(s)
	defer srv.Close()
	var waits []time.Duration
	c := instantClient(srv, &waits)
	c.MaxRetries = 2
	_, err := c.ShardMeta(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want the final 429", err)
	}
	if got := s.calls.Load(); got != 3 {
		t.Errorf("attempts = %d, want 1 + 2 retries", got)
	}
	if apiErr.Attempts != 3 {
		t.Errorf("APIError.Attempts = %d, want 3", apiErr.Attempts)
	}
}

func TestContextCancelDuringBackoff(t *testing.T) {
	s := &scriptedServer{t: t, replies: []func(http.ResponseWriter){shed("")}}
	srv := httptest.NewServer(s)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{Base: srv.URL, sleep: func(ctx context.Context, d time.Duration) error {
		cancel() // the caller gives up while the client is waiting
		return ctx.Err()
	}}
	if _, err := c.ShardMeta(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := s.calls.Load(); got != 1 {
		t.Errorf("attempts after cancel = %d, want 1", got)
	}
}

func TestNetworkErrorRetried(t *testing.T) {
	s := &scriptedServer{t: t, replies: []func(http.ResponseWriter){ok(ShardMetaResponse{Objects: 7})}}
	srv := httptest.NewServer(s)
	defer srv.Close()

	// First attempt hits a dead port, then the transport is pointed at
	// the live server.
	var attempts atomic.Int64
	c := &Client{
		Base:  srv.URL,
		sleep: func(ctx context.Context, d time.Duration) error { return nil },
		HTTP: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			if attempts.Add(1) == 1 {
				return nil, errors.New("connection refused")
			}
			return http.DefaultTransport.RoundTrip(r)
		})},
	}
	res, err := c.ShardMeta(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Objects != 7 || attempts.Load() != 2 {
		t.Fatalf("objects = %d after %d attempts, want 7 after 2", res.Objects, attempts.Load())
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestQueryParamsEncoding: a shard call encodes its location, radius
// and keywords as query parameters, and a trailing slash on Base does not
// double up.
func TestQueryParamsEncoding(t *testing.T) {
	var gotURL string
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotURL = r.URL.String()
		json.NewEncoder(w).Encode(ShardCollectResponse{})
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := &Client{Base: srv.URL + "/"}
	if _, err := c.ShardCollect(context.Background(), 1.5, -2, 7.25, []string{"cafe", "museum"}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(gotURL, "/shard/collect?") {
		t.Errorf("request URL %q, want path /shard/collect", gotURL)
	}
	for _, want := range []string{"x=1.5", "y=-2", "r=7.25", "kw=cafe%2Cmuseum"} {
		if !strings.Contains(gotURL, want) {
			t.Errorf("request URL %q missing %q", gotURL, want)
		}
	}
}
