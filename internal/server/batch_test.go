package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"coskq/internal/core"
	"coskq/internal/epoch"
	"coskq/internal/fault"
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

// TestLiveBatchPinsOneGeneration: a live /batch takes one pin for the
// whole batch. While the batch solves, the generation it started on is
// pinned once by it, even after a write publishes the next one, and
// items solved after the write answer as the generation they started on.
func TestLiveBatchPinsOneGeneration(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, st := liveServer(t, epoch.Options{})
	var before queryResponse
	getJSON(t, srv.URL+"/query?x=10&y=10&kw=cafe,museum", http.StatusOK, &before)

	// Every owner an item tries sleeps, and each worker has a long queue,
	// so the batch is still solving when the write below is published.
	req := batchRequest{Queries: make([]batchQueryJSON, min(24*runtime.GOMAXPROCS(0), maxBatchQueries))}
	for i := range req.Queries {
		req.Queries[i] = batchQueryJSON{X: 10, Y: 10, Kw: []string{"cafe", "museum"}}
	}
	old := st.Pin()
	defer old.Unpin()
	disarm := fault.Arm(1, fault.Rule{Point: fault.OwnerEnum, Kind: fault.KindLatency, Every: 1, Latency: 10 * time.Millisecond})
	defer disarm()
	type reply struct {
		resp batchResponse
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		var r reply
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader(body))
		if r.err = err; err == nil {
			r.err = json.NewDecoder(resp.Body).Decode(&r.resp)
			resp.Body.Close()
		}
		done <- r
	}()
	testutil.WaitFor(t, 10*time.Second, "the batch to start solving", func() bool { return fault.Hits(fault.OwnerEnum) > 0 })

	// An object at the query location with both keywords answers the
	// query at cost 0 on every later generation.
	postJSON(t, srv.URL+"/objects", map[string]any{"ops": []map[string]any{
		{"op": "insert", "x": 10.0, "y": 10.0, "kw": []string{"cafe", "museum"}},
	}}, http.StatusOK, nil)
	if err := st.WaitIdle(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("the batch finished before the write was published")
	default:
	}
	if st.Current() == old.Gen {
		t.Fatal("the write published no generation")
	}
	if n := old.Pins(); n != 2 {
		t.Fatalf("generation %d pinned %d times mid-batch, want 2 (this test's and the batch's)", old.Gen, n)
	}

	r := <-done
	disarm()
	if r.err != nil {
		t.Fatal(r.err)
	}
	for i, item := range r.resp.Results {
		if item.Error != "" || item.Cost != before.Cost {
			t.Fatalf("item %d: %+v, want cost %v of generation %d", i, item, before.Cost, old.Gen)
		}
	}
	if n := old.Pins(); n != 1 {
		t.Fatalf("generation %d pinned %d times after the batch, want 1", old.Gen, n)
	}
	var after queryResponse
	getJSON(t, srv.URL+"/query?x=10&y=10&kw=cafe,museum", http.StatusOK, &after)
	if after.Cost != 0 || before.Cost == 0 {
		t.Fatalf("the write did not change the answer: cost %v before, %v after", before.Cost, after.Cost)
	}
}
