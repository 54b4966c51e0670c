package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

// cityEngine builds the small fixture engine shared by the server tests.
func cityEngine() *core.Engine {
	b := dataset.NewBuilder("city")
	b.Add(geo.Point{X: 1, Y: 0}, "cafe")
	b.Add(geo.Point{X: 0, Y: 2}, "museum")
	b.Add(geo.Point{X: 2, Y: 2}, "cafe", "museum")
	b.Add(geo.Point{X: 50, Y: 50}, "park")
	return core.NewEngine(b.Build(), 0)
}

func testServer(t *testing.T) (*httptest.Server, *core.Engine) {
	t.Helper()
	eng := cityEngine()
	srv := httptest.NewServer(New(eng, Options{}))
	t.Cleanup(srv.Close)
	return srv, eng
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var got statsResponse
	getJSON(t, srv.URL+"/stats", http.StatusOK, &got)
	if got.Name != "city" || got.Objects != 4 || got.UniqueWords != 3 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv, eng := testServer(t)
	var got queryResponse
	getJSON(t, srv.URL+"/query?x=0&y=0&kw=cafe,museum", http.StatusOK, &got)
	if got.CostKind != "MaxSum" || got.Method != "OwnerExact" {
		t.Fatalf("defaults wrong: %+v", got)
	}
	if len(got.Objects) == 0 {
		t.Fatal("no objects returned")
	}
	// Must match the engine's own answer.
	kw := kwset(eng, "cafe", "museum")
	res, err := eng.Solve(core.Query{Loc: geo.Point{}, Keywords: kw}, core.MaxSum, core.OwnerExact)
	if err != nil {
		t.Fatal(err)
	}
	if abs(got.Cost-res.Cost) > 1e-9 {
		t.Fatalf("server cost %v, engine cost %v", got.Cost, res.Cost)
	}
	// Every returned object carries its keywords and distance.
	for _, o := range got.Objects {
		if len(o.Keywords) == 0 {
			t.Fatal("object without keywords")
		}
	}
}

func TestQueryEndpointVariants(t *testing.T) {
	srv, _ := testServer(t)
	var got queryResponse
	getJSON(t, srv.URL+"/query?x=0&y=0&kw=cafe&cost=dia&method=appro", http.StatusOK, &got)
	if got.CostKind != "Dia" || got.Method != "OwnerAppro" {
		t.Fatalf("variant response: %+v", got)
	}
	// The names are core.ParseCost's and core.ParseMethod's, in any case.
	getJSON(t, srv.URL+"/query?x=0&y=0&kw=cafe&cost=SumMax&method=owner-appro", http.StatusOK, &got)
	if got.CostKind != "SumMax" || got.Method != "OwnerAppro" {
		t.Fatalf("variant response: %+v", got)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	srv, _ := testServer(t)
	cases := []struct {
		path   string
		status int
	}{
		{"/query?x=abc&y=0&kw=cafe", http.StatusBadRequest},
		{"/query?x=0&y=0", http.StatusBadRequest},
		{"/query?x=0&y=0&kw=zeppelin", http.StatusBadRequest},
		{"/query?x=0&y=0&kw=cafe&cost=bogus", http.StatusBadRequest},
		{"/query?x=0&y=0&kw=cafe&method=bogus", http.StatusBadRequest},
		{"/query?x=0&y=0&kw=cafe&method=brute", http.StatusBadRequest}, // core.ParseMethod knows it; the server does not serve it
		{"/stats2", http.StatusNotFound},
	}
	for _, c := range cases {
		resp, err := http.Get(srv.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("GET %s: status %d, want %d", c.path, resp.StatusCode, c.status)
		}
	}
}

func TestTopKEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var got topKResponse
	getJSON(t, srv.URL+"/topk?x=0&y=0&kw=cafe,museum&n=2", http.StatusOK, &got)
	if len(got.Results) != 2 {
		t.Fatalf("topk returned %d results", len(got.Results))
	}
	if got.Results[0].Cost > got.Results[1].Cost {
		t.Fatal("topk results not ascending")
	}
	// Unsupported cost for topk.
	resp, err := http.Get(srv.URL + "/topk?x=0&y=0&kw=cafe&cost=sum")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("topk with sum cost: status %d", resp.StatusCode)
	}
	// Out-of-range n.
	resp, err = http.Get(srv.URL + "/topk?x=0&y=0&kw=cafe&n=1000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("topk with n=1000: status %d", resp.StatusCode)
	}
}

func TestSingleKeywordQueryEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var got queryResponse
	getJSON(t, srv.URL+"/query?x=0&y=0&kw=park", http.StatusOK, &got)
	if len(got.Objects) != 1 || got.Objects[0].Keywords[0] != "park" {
		t.Fatalf("park query: %+v", got)
	}
}

func kwset(eng *core.Engine, words ...string) kwds.Set {
	var ids []kwds.ID
	for _, w := range words {
		if id, ok := eng.DS.Vocab.Lookup(w); ok {
			ids = append(ids, id)
		}
	}
	return kwds.NewSet(ids...)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
