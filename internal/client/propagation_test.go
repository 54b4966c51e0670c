package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"coskq/internal/trace"
)

// TestClientInjectsObservabilityHeaders: every outbound call forwards
// the context's request id and span context as X-Request-Id and
// Traceparent headers; with neither in the context, neither header is
// sent.
func TestClientInjectsObservabilityHeaders(t *testing.T) {
	var gotID, gotTP string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotID = r.Header.Get("X-Request-Id")
		gotTP = r.Header.Get("Traceparent")
		w.Write([]byte(`{"hits":[]}`))
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL, MaxRetries: -1}

	// Bare context: no observability headers invented.
	if _, err := fetch(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if gotID != "" || gotTP != "" {
		t.Fatalf("bare context sent headers: id=%q tp=%q", gotID, gotTP)
	}

	sc := trace.NewSpanContext()
	ctx := trace.ContextWithRequestID(context.Background(), "req-42")
	ctx = trace.ContextWithSpanContext(ctx, sc)
	if _, err := fetch(ctx, c); err != nil {
		t.Fatal(err)
	}
	if gotID != "req-42" {
		t.Fatalf("X-Request-Id = %q, want req-42", gotID)
	}
	if gotTP != sc.Traceparent() {
		t.Fatalf("Traceparent = %q, want %q", gotTP, sc.Traceparent())
	}
}

// TestClientMetricsText: the federation leg fetches /metrics verbatim
// and caps a hostile peer's page at MaxMetricsPage bytes.
func TestClientMetricsText(t *testing.T) {
	page := "# TYPE a counter\na 1\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(page))
	}))
	defer srv.Close()
	c := &Client{Base: srv.URL, MaxRetries: -1}
	got, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != page {
		t.Fatalf("MetricsText = %q, want %q", got, page)
	}

	page = strings.Repeat("x", MaxMetricsPage+1024)
	if _, err = c.MetricsText(context.Background()); err == nil {
		t.Fatal("oversized peer page accepted; want a bounded-read error")
	}
}
