package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestParseRetryAfter pins the RFC 9110 §10.2.3 corners: delta-seconds
// (including negative, overflowing, and absurdly large values) and
// HTTP-dates in all three formats http.ParseTime accepts.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		h    string
		want time.Duration
		ok   bool
	}{
		{"absent", "", 0, false},
		{"plain seconds", "3", 3 * time.Second, true},
		{"zero seconds", "0", 0, true},
		{"cap boundary", "300", MaxRetryAfter, true},
		{"above cap", "301", MaxRetryAfter, true},
		{"huge but parseable", "86400000", MaxRetryAfter, true},
		{"overflows int64", "99999999999999999999999999", MaxRetryAfter, true},
		{"negative", "-5", 0, false},
		{"negative overflow", "-99999999999999999999999999", 0, false},
		{"fractional rejected", "2.5", 0, false},
		{"trailing junk", "3s", 0, false},
		{"garbage", "soon", 0, false},
		{"imf-fixdate future", now.Add(42 * time.Second).UTC().Format(http.TimeFormat), 42 * time.Second, true},
		{"imf-fixdate far future", now.Add(48 * time.Hour).UTC().Format(http.TimeFormat), MaxRetryAfter, true},
		{"imf-fixdate past", now.Add(-time.Minute).UTC().Format(http.TimeFormat), 0, false},
		{"imf-fixdate now", now.UTC().Format(http.TimeFormat), 0, false},
		{"rfc850 future", now.Add(30 * time.Second).UTC().Format("Monday, 02-Jan-06 15:04:05 GMT"), 30 * time.Second, true},
		{"asctime future", now.Add(30 * time.Second).UTC().Format(time.ANSIC), 30 * time.Second, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseRetryAfter(tc.h, now)
			if ok != tc.ok || got != tc.want {
				t.Fatalf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.h, got, ok, tc.want, tc.ok)
			}
		})
	}
}

// TestHonorsRetryAfterDate: a 429 carrying an HTTP-date hint makes the
// client wait approximately until that instant, not the computed
// backoff. (Approximate because the client anchors on its own clock; a
// 30s hint must not collapse to the ~50ms default backoff.)
func TestHonorsRetryAfterDate(t *testing.T) {
	when := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	s := &scriptedServer{t: t, replies: []func(http.ResponseWriter){
		shed(when),
		ok(ShardMetaResponse{Objects: 5}),
	}}
	srv := httptest.NewServer(s)
	defer srv.Close()
	var waits []time.Duration
	c := instantClient(srv, &waits)
	res, err := c.ShardMeta(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Objects != 5 {
		t.Fatalf("objects = %d, want 5", res.Objects)
	}
	if len(waits) != 1 || waits[0] < 25*time.Second || waits[0] > 30*time.Second {
		t.Fatalf("waits = %v, want one wait near the 30s date hint", waits)
	}
}

// TestPastDateFallsBackToBackoff: a stale HTTP-date hint is discarded
// and the normal jittered backoff takes over.
func TestPastDateFallsBackToBackoff(t *testing.T) {
	when := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	s := &scriptedServer{t: t, replies: []func(http.ResponseWriter){
		shed(when),
		ok(ShardMetaResponse{}),
	}}
	srv := httptest.NewServer(s)
	defer srv.Close()
	var waits []time.Duration
	c := instantClient(srv, &waits)
	if _, err := c.ShardMeta(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(waits) != 1 || waits[0] > DefaultBaseBackoff {
		t.Fatalf("waits = %v, want one computed backoff ≤ %v", waits, DefaultBaseBackoff)
	}
}

// TestNegativeSecondsFallsBackToBackoff: "-1" must not be treated as a
// zero-length (or worse, huge unsigned) hint.
func TestNegativeSecondsFallsBackToBackoff(t *testing.T) {
	s := &scriptedServer{t: t, replies: []func(http.ResponseWriter){
		shed("-1"),
		ok(ShardMetaResponse{}),
	}}
	srv := httptest.NewServer(s)
	defer srv.Close()
	var waits []time.Duration
	c := instantClient(srv, &waits)
	if _, err := c.ShardMeta(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(waits) != 1 || waits[0] <= 0 || waits[0] > DefaultBaseBackoff {
		t.Fatalf("waits = %v, want one positive computed backoff", waits)
	}
}
