package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coskq/internal/epoch"
	"coskq/internal/shard"
	"coskq/internal/testutil"
)

// liveServer spins up a NewLive handler over the city fixture.
func liveServer(t *testing.T, opts epoch.Options) (*httptest.Server, *epoch.Store) {
	t.Helper()
	st := epoch.New(cityEngine(), opts)
	t.Cleanup(st.Close)
	srv := httptest.NewServer(NewLive(st, Options{}))
	t.Cleanup(srv.Close)
	return srv, st
}

func postJSON(t *testing.T, url string, body any, wantStatus int, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp
}

func waitStoreIdle(t *testing.T, st *epoch.Store) {
	t.Helper()
	testutil.WaitFor(t, 10*time.Second, "store idle", func() bool { return st.Backlog() == 0 })
}

func TestObjectsEndpoint(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, st := liveServer(t, epoch.Options{})
	var resp objectsResponse
	postJSON(t, srv.URL+"/objects", map[string]any{
		"ops": []map[string]any{
			{"op": "insert", "x": 3.0, "y": 3.0, "kw": []string{"bar"}},
			{"op": "delete", "key": 3},
			{"op": "edit", "key": 0, "kw": []string{"cafe", "bar"}},
			{"op": "delete", "key": 999},
		},
	}, http.StatusOK, &resp)
	if len(resp.Results) != 4 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if resp.Results[0].Error != "" || resp.Results[0].Key != 4 {
		t.Fatalf("insert result = %+v", resp.Results[0])
	}
	if resp.Results[1].Error != "" || resp.Results[2].Error != "" {
		t.Fatalf("delete/edit rejected: %+v", resp.Results[1:3])
	}
	if resp.Results[3].Error != "unknown key" {
		t.Fatalf("bad delete error = %q", resp.Results[3].Error)
	}
	waitStoreIdle(t, st)

	// The mutations are now queryable through the ordinary read surface,
	// and /query resolves keywords against the new generation's vocab.
	var q queryResponse
	getJSON(t, srv.URL+"/query?x=3&y=3&kw=bar", http.StatusOK, &q)
	if len(q.Objects) == 0 {
		t.Fatalf("inserted keyword not queryable: %+v", q)
	}
	var h map[string]any
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	if h["gen"] == nil || h["gen"].(float64) < 1 {
		t.Fatalf("healthz gen = %v, want >= 1", h["gen"])
	}
}

func TestObjectsIdempotencyToken(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, st := liveServer(t, epoch.Options{})
	body := map[string]any{
		"seq": "tok-42",
		"ops": []map[string]any{{"op": "insert", "x": 9.0, "y": 9.0, "kw": []string{"pub"}}},
	}
	var first, second objectsResponse
	postJSON(t, srv.URL+"/objects", body, http.StatusOK, &first)
	postJSON(t, srv.URL+"/objects", body, http.StatusOK, &second)
	if first.Replayed || !second.Replayed {
		t.Fatalf("replayed flags: first=%v second=%v", first.Replayed, second.Replayed)
	}
	if first.Results[0].Key != second.Results[0].Key {
		t.Fatalf("replay returned different key: %d vs %d", first.Results[0].Key, second.Results[0].Key)
	}
	waitStoreIdle(t, st)
	var stats statsResponse
	getJSON(t, srv.URL+"/stats", http.StatusOK, &stats)
	if stats.Objects != 5 {
		t.Fatalf("objects = %d, want 5 (batch applied once)", stats.Objects)
	}
	if stats.Gen == 0 {
		t.Fatal("stats does not surface the live generation")
	}
}

func TestObjectsBacklogShedsWith429(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, _ := liveServer(t, epoch.Options{MaxBacklog: 1})
	resp := postJSON(t, srv.URL+"/objects", map[string]any{
		"ops": []map[string]any{
			{"op": "insert", "kw": []string{"a"}},
			{"op": "insert", "kw": []string{"b"}},
		},
	}, http.StatusTooManyRequests, nil)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response lacks Retry-After")
	}
	// Reads stay unthrottled while the write path sheds.
	getJSON(t, srv.URL+"/query?x=1&y=1&kw=cafe", http.StatusOK, nil)
}

func TestObjectsValidation(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, _ := liveServer(t, epoch.Options{})
	postJSON(t, srv.URL+"/objects", map[string]any{"ops": []map[string]any{}}, http.StatusBadRequest, nil)
	resp, err := http.Post(srv.URL+"/objects", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
}

func TestObjectsNotMountedOnStaticServer(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/objects", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("static server serves /objects: status %d", resp.StatusCode)
	}
}

func TestObjectsStream(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, st := liveServer(t, epoch.Options{})
	var b strings.Builder
	b.WriteString(`{"op":"insert","x":5,"y":5,"kw":["inn"]}` + "\n")
	b.WriteString("\n") // blank lines are skipped
	b.WriteString(`{"op":"edit","key":1,"kw":["museum","inn"]}` + "\n")
	b.WriteString(`not json` + "\n")
	b.WriteString(`{"op":"delete","key":777}` + "\n")
	resp, err := http.Post(srv.URL+"/objects/stream", "application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var sum streamSummaryJSON
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Accepted != 2 || sum.Rejected != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	lines := map[int]string{}
	for _, e := range sum.Errors {
		lines[e.Line] = e.Error
	}
	if !strings.HasPrefix(lines[4], "bad line") || lines[5] != "unknown key" {
		t.Fatalf("stream errors = %+v", sum.Errors)
	}
	waitStoreIdle(t, st)
	getJSON(t, srv.URL+"/query?x=5&y=5&kw=inn", http.StatusOK, nil)
}

func TestLiveShardDataPlaneGenHeader(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, st := liveServer(t, epoch.Options{})
	var nn shard.WireNN
	getJSON(t, srv.URL+"/shard/nn?x=0&y=0&kw=cafe", http.StatusOK, &nn)
	if nn.Gen != 0 {
		t.Fatalf("pre-churn nn gen = %d", nn.Gen)
	}
	var resp objectsResponse
	postJSON(t, srv.URL+"/objects", map[string]any{
		"ops": []map[string]any{{"op": "insert", "x": 4.0, "y": 4.0, "kw": []string{"cafe"}}},
	}, http.StatusOK, &resp)
	waitStoreIdle(t, st)
	testutil.WaitFor(t, 5*time.Second, "generation swap", func() bool { return st.Current() >= 1 })
	getJSON(t, srv.URL+"/shard/nn?x=0&y=0&kw=cafe", http.StatusOK, &nn)
	if nn.Gen < 1 {
		t.Fatalf("post-churn nn gen = %d, want >= 1", nn.Gen)
	}
	var col shard.WireCollect
	getJSON(t, srv.URL+"/shard/collect?x=0&y=0&r=100&kw=cafe", http.StatusOK, &col)
	if col.Gen != nn.Gen {
		t.Fatalf("collect gen %d != nn gen %d on a quiescent store", col.Gen, nn.Gen)
	}
	var meta shard.WireMeta
	getJSON(t, srv.URL+"/shard/meta", http.StatusOK, &meta)
	if meta.Gen != nn.Gen || meta.Objects != 5 {
		t.Fatalf("meta = %+v, want gen %d and 5 objects", meta, nn.Gen)
	}
}

// TestRequestPinAllocs pins the per-request handle's cost: serving a
// handler through pinned allocates nothing, on a static server and on a
// live one, and a live pin is gone from the generation once the handler
// returns.
func TestRequestPinAllocs(t *testing.T) {
	st := epoch.New(cityEngine(), epoch.Options{})
	t.Cleanup(st.Close)
	for _, tc := range []struct {
		name string
		s    *server
	}{
		{"static", &server{eng: cityEngine()}},
		{"live", &server{store: st}},
	} {
		h := tc.s.pinned(func(_ http.ResponseWriter, _ *http.Request, p pin) {
			if p.eng == nil {
				t.Error("pin carries no engine")
			}
		})
		if allocs := testing.AllocsPerRun(100, func() { h(nil, nil) }); allocs != 0 {
			t.Errorf("%s server: pinned allocates %v per request, want 0", tc.name, allocs)
		}
	}
	g := st.Pin()
	defer g.Unpin()
	if g.Pins() != 1 {
		t.Errorf("generation holds %d pins after every request released, want only this test's 1", g.Pins())
	}
}

// TestObjectsLastCarrierMakesWordUnknown: over HTTP, a word is part of
// the served vocabulary exactly while a live object carries it. Deleting
// "park"'s only carrier turns a query for it from an answer into the 400
// an unknown keyword gets and drops it from /stats; re-inserting it
// brings both back.
func TestObjectsLastCarrierMakesWordUnknown(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	srv, st := liveServer(t, epoch.Options{})
	words := func() int {
		var s statsResponse
		getJSON(t, srv.URL+"/stats", http.StatusOK, &s)
		return s.UniqueWords
	}
	seed := words()
	getJSON(t, srv.URL+"/query?x=50&y=50&kw=park", http.StatusOK, nil)

	postJSON(t, srv.URL+"/objects", map[string]any{
		"ops": []map[string]any{{"op": "delete", "key": 3}},
	}, http.StatusOK, nil)
	waitStoreIdle(t, st)
	var e struct {
		Error string `json:"error"`
	}
	getJSON(t, srv.URL+"/query?x=50&y=50&kw=park", http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "unknown keywords: park") {
		t.Fatalf("query for a word with no carrier left: %q", e.Error)
	}
	if got := words(); got != seed-1 {
		t.Fatalf("uniqueWords = %d after park's last carrier went, want %d", got, seed-1)
	}

	postJSON(t, srv.URL+"/objects", map[string]any{
		"ops": []map[string]any{{"op": "insert", "x": 40.0, "y": 40.0, "kw": []string{"park"}}},
	}, http.StatusOK, nil)
	waitStoreIdle(t, st)
	var q queryResponse
	getJSON(t, srv.URL+"/query?x=50&y=50&kw=park", http.StatusOK, &q)
	if len(q.Objects) != 1 || q.Objects[0].X != 40 {
		t.Fatalf("query after the re-insert: %+v", q)
	}
	if got := words(); got != seed {
		t.Fatalf("uniqueWords = %d after the re-insert, want %d", got, seed)
	}
}
