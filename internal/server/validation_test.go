package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/testutil"
)

// wideServer serves a dataset with more distinct words than one query may
// carry, so an over-wide query passes keyword resolution and reaches the
// engine.
func wideServer(t *testing.T) (*httptest.Server, []string) {
	t.Helper()
	b := dataset.NewBuilder("wide")
	words := make([]string, kwds.MaxQueryKeywords+6)
	for i := range words {
		words[i] = fmt.Sprintf("w%02d", i)
		b.Add(geo.Point{X: float64(i % 9), Y: float64(i / 9)}, words[i])
	}
	srv := httptest.NewServer(New(core.NewEngine(b.Build(), 0), Options{}))
	t.Cleanup(srv.Close)
	return srv, words
}

// TestTooManyKeywords: a query with more known keywords than the engine's
// coverage masks hold is the client's error, not a 500.
func TestTooManyKeywords(t *testing.T) {
	srv, words := wideServer(t)
	wide := strings.Join(words[:kwds.MaxQueryKeywords+1], ",")
	for _, path := range []string{"/query", "/topk"} {
		var got map[string]string
		getJSON(t, srv.URL+path+"?x=1&y=1&kw="+wide, http.StatusBadRequest, &got)
		if !strings.Contains(got["error"], "more than 64 keywords") {
			t.Errorf("GET %s: error %q", path, got["error"])
		}
	}
}

// TestBatchTooManyKeywords: on /batch the over-wide query fails in place.
// It used to panic inside a solver goroutine, outside the recover
// middleware, and take the process down.
func TestBatchTooManyKeywords(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, words := wideServer(t)
	got, _ := postBatch(t, srv.URL, batchRequest{Queries: []batchQueryJSON{
		{X: 1, Y: 1, Kw: words[:2]},
		{X: 1, Y: 1, Kw: words[:kwds.MaxQueryKeywords+1]},
		{X: 2, Y: 2, Kw: words[3:5]},
	}}, http.StatusOK)
	if got.Results[0].Error != "" || got.Results[2].Error != "" {
		t.Fatalf("healthy items failed: %+v", got.Results)
	}
	if !strings.Contains(got.Results[1].Error, "more than 64 keywords") {
		t.Fatalf("over-wide item: %+v", got.Results[1])
	}
}

// TestNonFiniteCoordinates: strconv.ParseFloat accepts NaN and Inf; the
// server must not (the answer's NaN cost cannot be JSON-encoded, so the
// client used to get 200 with an empty body).
func TestNonFiniteCoordinates(t *testing.T) {
	srv, _ := testServer(t)
	for _, path := range []string{"/query", "/topk"} {
		for _, bad := range []string{"NaN", "Inf", "-Inf", "1e999"} {
			for _, params := range []string{"x=" + bad + "&y=0", "x=0&y=" + bad} {
				url := srv.URL + path + "?" + params + "&kw=cafe"
				getJSON(t, url, http.StatusBadRequest, nil)
			}
		}
	}
}

// TestBlankKeywordEntries pins the one reading of kw=a,b,c every endpoint
// shares (splitKeywords): blank entries are dropped, so "cafe,,museum"
// is the query "cafe,museum" — the engine's /query used to answer 400
// "unknown keywords: " where the coordinator's /query answered 200 — and
// a list of nothing but blanks is a missing kw.
func TestBlankKeywordEntries(t *testing.T) {
	srv, _ := testServer(t)
	for _, path := range []string{"/query", "/topk"} {
		var want, got struct {
			Cost    float64 `json:"cost"`
			Results []struct {
				Cost float64 `json:"cost"`
			} `json:"results"`
		}
		getJSON(t, srv.URL+path+"?x=0&y=0&kw=cafe,museum", http.StatusOK, &want)
		getJSON(t, srv.URL+path+"?x=0&y=0&kw=cafe,,%20museum,", http.StatusOK, &got)
		if got.Cost != want.Cost || len(got.Results) != len(want.Results) {
			t.Errorf("GET %s: blank entries changed the answer: %+v vs %+v", path, got, want)
		}
		var bad map[string]string
		getJSON(t, srv.URL+path+"?x=0&y=0&kw=,%20,", http.StatusBadRequest, &bad)
		if !strings.Contains(bad["error"], "provide kw=") {
			t.Errorf("GET %s: error %q", path, bad["error"])
		}
	}
	getJSON(t, srv.URL+"/shard/nn?x=0&y=0&kw=,", http.StatusBadRequest, nil)
}
