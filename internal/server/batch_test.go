package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"coskq/internal/core"
	"coskq/internal/geo"
	"coskq/internal/testutil"
)

func postBatch(t *testing.T, url string, req batchRequest, wantStatus int) (batchResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /batch: status %d, want %d", resp.StatusCode, wantStatus)
	}
	var out batchResponse
	if wantStatus == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return out, resp
}

// TestBatchEndpoint: a mixed batch answers every item, and each answer
// matches the engine's own single-query solve exactly.
func TestBatchEndpoint(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, eng := testServer(t)
	req := batchRequest{
		Cost: "maxsum",
		Queries: []batchQueryJSON{
			{X: 0, Y: 0, Kw: []string{"cafe", "museum"}},
			{X: 0.1, Y: 0.1, Kw: []string{"cafe", "museum"}},
			{X: 50, Y: 50, Kw: []string{"park"}},
		},
	}
	got, _ := postBatch(t, srv.URL, req, http.StatusOK)
	if got.CostKind != "MaxSum" || got.Method != "OwnerExact" {
		t.Fatalf("defaults wrong: %+v", got)
	}
	if len(got.Results) != len(req.Queries) {
		t.Fatalf("batch returned %d results for %d queries", len(got.Results), len(req.Queries))
	}
	for i, bq := range req.Queries {
		item := got.Results[i]
		if item.Error != "" {
			t.Fatalf("item %d: unexpected error %q", i, item.Error)
		}
		res, err := eng.Solve(core.Query{
			Loc:      geo.Point{X: bq.X, Y: bq.Y},
			Keywords: kwset(eng, bq.Kw...),
		}, core.MaxSum, core.OwnerExact)
		if err != nil {
			t.Fatal(err)
		}
		if item.Cost != res.Cost {
			t.Fatalf("item %d: server cost %v, engine cost %v", i, item.Cost, res.Cost)
		}
		if len(item.Objects) != len(res.Set) {
			t.Fatalf("item %d: %d objects, engine %d", i, len(item.Objects), len(res.Set))
		}
	}
}

// TestBatchEndpointPerItemErrors: a bad query fails in place without
// taking down its batch mates.
func TestBatchEndpointPerItemErrors(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, _ := testServer(t)
	req := batchRequest{
		Queries: []batchQueryJSON{
			{X: 0, Y: 0, Kw: []string{"cafe"}},
			{X: 0, Y: 0, Kw: []string{"zeppelin"}},
			{X: 0, Y: 0},
			{X: 2, Y: 2, Kw: []string{"museum"}},
		},
	}
	got, _ := postBatch(t, srv.URL, req, http.StatusOK)
	if got.Results[0].Error != "" || got.Results[3].Error != "" {
		t.Fatalf("healthy items failed: %+v", got.Results)
	}
	if got.Results[1].Error != "unknown keywords: zeppelin" {
		t.Fatalf("unknown-keyword item: %+v", got.Results[1])
	}
	if got.Results[2].Error != "query carries no keywords" {
		t.Fatalf("empty-keyword item: %+v", got.Results[2])
	}
}

// TestBatchEndpointBlankKeywords: a batch item reads its keyword list
// the way /query reads kw=: trimmed, with blank entries dropped.
func TestBatchEndpointBlankKeywords(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, _ := testServer(t)
	req := batchRequest{
		Queries: []batchQueryJSON{
			{X: 0, Y: 0, Kw: []string{"cafe", "museum"}},
			{X: 0, Y: 0, Kw: []string{"cafe", " ", "", " museum "}},
			{X: 0, Y: 0, Kw: []string{" ", ""}},
		},
	}
	got, _ := postBatch(t, srv.URL, req, http.StatusOK)
	if got.Results[1].Error != "" || got.Results[1].Cost != got.Results[0].Cost {
		t.Fatalf("blank entries changed the answer: %+v vs %+v", got.Results[1], got.Results[0])
	}
	if got.Results[2].Error != "query carries no keywords" {
		t.Fatalf("all-blank item: %+v", got.Results[2])
	}
}

// TestBatchEndpointVariants: cost/method selections apply, and a body
// still carrying the retired "workers" knob is answered, not refused.
func TestBatchEndpointVariants(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, _ := testServer(t)
	req := batchRequest{
		Cost:    "dia",
		Method:  "appro",
		Queries: []batchQueryJSON{{X: 0, Y: 0, Kw: []string{"cafe"}}},
	}
	got, _ := postBatch(t, srv.URL, req, http.StatusOK)
	if got.CostKind != "Dia" || got.Method != "OwnerAppro" {
		t.Fatalf("variants: %+v", got)
	}
	body := `{"cost":"dia","method":"appro","workers":4,"queries":[{"x":0,"y":0,"kw":["cafe"]}]}`
	resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var old batchResponse
	err = json.NewDecoder(resp.Body).Decode(&old)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || len(old.Results) != 1 || old.Results[0].Cost != got.Results[0].Cost {
		t.Fatalf(`body with "workers": status %d, %+v (decode err %v), want %+v`, resp.StatusCode, old, err, got)
	}
}

// TestBatchEndpointBadRequests: request-level failures reject the whole
// batch with 400.
func TestBatchEndpointBadRequests(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, _ := testServer(t)
	oversize := batchRequest{Queries: make([]batchQueryJSON, maxBatchQueries+1)}
	for i := range oversize.Queries {
		oversize.Queries[i] = batchQueryJSON{Kw: []string{"cafe"}}
	}
	cases := []batchRequest{
		{},       // no queries
		oversize, // too many queries
		{Cost: "bogus", Queries: []batchQueryJSON{{Kw: []string{"cafe"}}}},
		{Method: "bogus", Queries: []batchQueryJSON{{Kw: []string{"cafe"}}}},
	}
	for i, req := range cases {
		postBatch(t, srv.URL, req, http.StatusBadRequest)
		_ = i
	}
	// Malformed JSON body.
	resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
	// Oversize raw body (beyond MaxBytesReader).
	big := fmt.Sprintf(`{"queries":[{"kw":["%s"]}]}`, bytes.Repeat([]byte("a"), maxBatchBody))
	resp, err = http.Post(srv.URL+"/batch", "application/json", bytes.NewReader([]byte(big)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize body: status %d", resp.StatusCode)
	}
}

// TestBatchEndpointGet: /batch is POST-only.
func TestBatchEndpointGet(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch: status %d, want 405", resp.StatusCode)
	}
}
