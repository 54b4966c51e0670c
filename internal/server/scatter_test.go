package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"coskq/internal/client"
	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/shard"
	"coskq/internal/trace"
)

// districts builds three small shard datasets — each covering the full
// {cafe, museum, park} vocabulary, so any single dead shard leaves
// every query coverable — plus the combined dataset for the oracle.
func districts() (parts []*dataset.Dataset, all *dataset.Dataset) {
	centers := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 80}}
	ab := dataset.NewBuilder("all-districts")
	for di, c := range centers {
		b := dataset.NewBuilder(fmt.Sprintf("district-%d", di))
		for i := 0; i < 6; i++ {
			p := geo.Point{X: c.X + float64(i%3)*2, Y: c.Y + float64(i/3)*3}
			ws := []string{"cafe"}
			if i%2 == 1 {
				ws = []string{"museum"}
			}
			if i == 4 {
				ws = append(ws, "park")
			}
			b.Add(p, ws...)
			ab.Add(p, ws...)
		}
		parts = append(parts, b.Build())
	}
	return parts, ab.Build()
}

// scatterFleet serves each district from its own engine server and
// fronts them with a scatter-gather coordinator whose router degrades
// under policy. The shard clients are fail-fast (no retries) so a killed
// shard surfaces immediately.
func scatterFleet(t *testing.T, policy core.DegradePolicy) (coord *httptest.Server, shards []*httptest.Server, oracle *core.Engine) {
	t.Helper()
	parts, all := districts()
	backends := make([]shard.Backend, len(parts))
	for i, ds := range parts {
		srv := httptest.NewServer(NewWith(core.NewEngine(ds, 0), Options{}))
		t.Cleanup(srv.Close)
		shards = append(shards, srv)
		backends[i] = shard.NewHTTPBackend(&client.Client{Base: srv.URL, MaxRetries: -1})
	}
	coord = httptest.NewServer(NewScatterGather(&shard.Router{Backends: backends, Degrade: policy}, Options{}))
	t.Cleanup(coord.Close)
	return coord, shards, core.NewEngine(all, 0)
}

func oracleQuery(t *testing.T, eng *core.Engine, loc geo.Point, words []string) core.Result {
	t.Helper()
	var qset kwds.Set
	for _, w := range words {
		id, ok := eng.DS.Vocab.Lookup(w)
		if !ok {
			t.Fatalf("oracle vocab missing %q", w)
		}
		qset = qset.Union(kwds.NewSet(id))
	}
	res, err := eng.Solve(core.Query{Loc: loc, Keywords: qset}, core.MaxSum, core.OwnerExact)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScatterGatherDegradesOnDeadShard: with a lenient policy, killing
// one shard server mid-fleet yields a 200 marked Degraded (header and
// body) whose answer is still feasible — not a 502 and not a wrong
// answer presented as complete.
func TestScatterGatherDegradesOnDeadShard(t *testing.T) {
	coord, shards, eng := scatterFleet(t, core.DegradeIncumbent)
	url := coord.URL + "/query?x=50&y=30&kw=cafe,museum,park"

	// Warm the router's meta cache while the whole fleet is alive.
	var warm queryResponse
	getJSON(t, url, http.StatusOK, &warm)
	if warm.Degraded {
		t.Fatalf("healthy fleet answered degraded: %+v", warm)
	}

	shards[1].Close()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dead shard: status %d, want 200 degraded", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Coskq-Degraded"); got != string(core.DegradeReasonShard) {
		t.Fatalf("X-Coskq-Degraded = %q, want %q", got, core.DegradeReasonShard)
	}
	var got queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Degraded || got.Reason != string(core.DegradeReasonShard) {
		t.Fatalf("body not marked degraded: %+v", got)
	}
	// The partial answer solves over a subset of the fleet: it can never
	// beat the full optimum, and it must still cover the query.
	want := oracleQuery(t, eng, geo.Point{X: 50, Y: 30}, []string{"cafe", "museum", "park"})
	if got.Cost < want.Cost {
		t.Fatalf("degraded cost %v beats the full optimum %v", got.Cost, want.Cost)
	}
	if len(got.Objects) == 0 {
		t.Fatal("degraded answer is empty")
	}
}

// TestScatterGatherStrictPolicyReturns502: under the default strict
// policy a dead shard is an upstream failure, reported as 502 so the
// client's retry loop treats it as transient.
func TestScatterGatherStrictPolicyReturns502(t *testing.T) {
	coord, shards, _ := scatterFleet(t, core.DegradeFail)
	url := coord.URL + "/query?x=50&y=30&kw=cafe,museum,park"
	var warm queryResponse
	getJSON(t, url, http.StatusOK, &warm)

	shards[0].Close()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead shard under strict policy: status %d, want 502", resp.StatusCode)
	}
}

// TestScatterGatherSurface covers the coordinator's non-query routes
// and parameter validation.
func TestScatterGatherSurface(t *testing.T) {
	coord, _, _ := scatterFleet(t, core.DegradeFail)

	var health struct {
		Status string `json:"status"`
		Mode   string `json:"mode"`
		Shards int    `json:"shards"`
	}
	getJSON(t, coord.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Mode != "scatter-gather" || health.Shards != 3 {
		t.Fatalf("healthz = %+v", health)
	}

	// The coordinator serves /query and /batch over its router and mounts
	// no engine route: each is a 404, not a handler reaching for an
	// engine the router does not have.
	cases := []struct {
		method, url string
		status      int
	}{
		{"GET", "/topk?x=0&y=0&kw=cafe&n=2", http.StatusNotImplemented},
		{"GET", "/query?x=oops&y=0&kw=cafe", http.StatusBadRequest},
		{"GET", "/query?x=0&y=0", http.StatusBadRequest},
		{"GET", "/query?x=0&y=0&kw=cafe&cost=", http.StatusOK},
		{"GET", "/query?x=0&y=0&kw=nosuchword", http.StatusUnprocessableEntity},
		{"POST", "/batch", http.StatusOK},
		{"GET", "/stats", http.StatusNotFound},
		{"GET", "/shard/meta", http.StatusNotFound},
		{"GET", "/shard/nn?x=0&y=0&kw=cafe", http.StatusNotFound},
		{"POST", "/objects", http.StatusNotFound},
	}
	for _, tc := range cases {
		var body io.Reader
		if tc.method == "POST" {
			body = strings.NewReader(`{"queries":[{"x":0,"y":0,"kw":["cafe"]}]}`)
		}
		req, err := http.NewRequest(tc.method, coord.URL+tc.url, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.url, resp.StatusCode, tc.status)
		}
	}
}

// TestShardDataPlane covers the /shard/* routes every engine server
// mounts: meta round-trips the summary, NN resolves unknown words to
// not-found slots, and collect validates its radius.
func TestShardDataPlane(t *testing.T) {
	srv, _ := testServer(t)

	var meta shard.WireMeta
	getJSON(t, srv.URL+"/shard/meta", http.StatusOK, &meta)
	if meta.Name != "city" || meta.Objects != 4 || meta.Empty {
		t.Fatalf("meta = %+v", meta)
	}
	sum, err := shard.DecodeSummary(meta.Summary)
	if err != nil {
		t.Fatalf("summary did not round-trip: %v", err)
	}
	if !sum.Might("cafe") || !sum.Might("park") {
		t.Fatal("summary lost a present keyword")
	}

	var nn shard.WireNN
	getJSON(t, srv.URL+"/shard/nn?x=0&y=0&kw=cafe,definitely-absent", http.StatusOK, &nn)
	if len(nn.Hits) != 2 || !nn.Hits[0].Found || nn.Hits[1].Found {
		t.Fatalf("nn hits = %+v", nn.Hits)
	}

	var coll shard.WireCollect
	getJSON(t, srv.URL+"/shard/collect?x=0&y=0&r=10&kw=cafe", http.StatusOK, &coll)
	if len(coll.Objects) == 0 {
		t.Fatal("collect returned no objects inside a covering radius")
	}

	// A word's position is its bit in a 64-bit coverage mask. 64 words fit:
	// the last one lands on bit 63, and the wire still answers one hit slot
	// per word. A 65th would shift out of the mask (1 << 64 is 0 in Go), so
	// it is refused before any mask exists (65 known words used to panic in
	// kwds.NewQueryIndex on collect, a 500, and answer 65 slots on nn). The
	// limit counts list entries, repeats included: each entry owns a bit.
	filler := func(n int) string {
		ws := make([]string, n)
		for i := range ws {
			ws[i] = fmt.Sprintf("filler-%02d", i)
		}
		return strings.Join(ws, ",")
	}
	wide := filler(kwds.MaxQueryKeywords-1) + ",cafe"
	getJSON(t, srv.URL+"/shard/nn?x=0&y=0&kw="+wide, http.StatusOK, &nn)
	if len(nn.Hits) != kwds.MaxQueryKeywords || !nn.Hits[kwds.MaxQueryKeywords-1].Found || nn.Hits[0].Found {
		t.Fatalf("64-word nn: %d hits, last found %v", len(nn.Hits), nn.Hits[len(nn.Hits)-1].Found)
	}
	hb := shard.NewHTTPBackend(&client.Client{Base: srv.URL, MaxRetries: -1})
	wq := shard.ShardQuery{Words: strings.Split(wide, ",")}
	got, err := hb.Collect(context.Background(), wq, 10)
	if err != nil || len(got.Objects) != len(coll.Objects) {
		t.Fatalf("64-word collect: %d objects (want %d), err %v", len(got.Objects), len(coll.Objects), err)
	}
	for _, c := range got.Objects {
		if c.Mask != 1<<63 {
			t.Fatalf("64-word collect: object %d mask %b, want bit 63 alone", c.GID, c.Mask)
		}
	}
	wq.Words = append(wq.Words, "park")
	if _, err := hb.Collect(context.Background(), wq, 10); !errors.Is(err, core.ErrTooManyKeywords) {
		t.Fatalf("65-word HTTPBackend.Collect: err %v, want ErrTooManyKeywords", err)
	}

	repeats65 := strings.Repeat("cafe,", kwds.MaxQueryKeywords) + "park"
	for _, bad := range []string{
		"/shard/collect?x=0&y=0&r=-1&kw=cafe",
		"/shard/collect?x=0&y=0&r=NaN&kw=cafe",
		"/shard/collect?x=0&y=0&kw=cafe",
		"/shard/nn?x=zero&y=0&kw=cafe",
		"/shard/nn?x=0&y=0",
		"/shard/nn?x=0&y=0&kw=" + wide + ",park",
		"/shard/collect?x=0&y=0&r=10&kw=" + wide + ",park",
		"/shard/nn?x=0&y=0&kw=" + repeats65,
		"/shard/collect?x=0&y=0&r=10&kw=" + repeats65,
	} {
		resp, err := http.Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestShardWireKeys pins the /shard/* JSON keys, so coordinators and
// shards built before and after a change to the wire types still
// interoperate: each body, and each hit and object in it, carries
// exactly these keys, plus "trace" when the request carried a
// traceparent header.
func TestShardWireKeys(t *testing.T) {
	srv, _ := testServer(t)
	get := func(path string, traced bool) map[string]any {
		t.Helper()
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			req.Header.Set("Traceparent", trace.NewSpanContext().Traceparent())
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
			t.Fatalf("GET %s: status %d or an undecodable body", path, resp.StatusCode)
		}
		return body
	}
	wantKeys := func(what string, v any, want ...string) {
		t.Helper()
		m, ok := v.(map[string]any)
		if !ok {
			t.Fatalf("%s: %T, want a JSON object", what, v)
		}
		got := make([]string, 0, len(m))
		for k := range m {
			got = append(got, k)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s keys %v, want %v", what, got, want)
		}
	}
	wantKeys("/shard/meta", get("/shard/meta", false),
		"name", "objects", "minX", "minY", "maxX", "maxY", "empty", "summary", "gen")
	hit := []string{"found", "id", "x", "y", "dist", "keywords"}
	object := []string{"id", "x", "y", "keywords"}
	for _, traced := range []bool{false, true} {
		body := []string{"gen", "hits"}
		if traced {
			body = append(body, "trace")
		}
		nn := get("/shard/nn?x=0&y=0&kw=cafe,definitely-absent", traced)
		wantKeys(fmt.Sprintf("/shard/nn (traced %v)", traced), nn, body...)
		for i, h := range nn["hits"].([]any) {
			wantKeys(fmt.Sprintf("/shard/nn hit %d", i), h, hit...)
		}
		body[1] = "objects"
		coll := get("/shard/collect?x=0&y=0&r=10&kw=cafe", traced)
		wantKeys(fmt.Sprintf("/shard/collect (traced %v)", traced), coll, body...)
		objs := coll["objects"].([]any)
		if len(objs) == 0 {
			t.Fatal("/shard/collect: no objects to check")
		}
		for i, o := range objs {
			wantKeys(fmt.Sprintf("/shard/collect object %d", i), o, object...)
		}
	}
}

// TestShardDataPlaneParity: a shard reached in-process and the same shard
// reached over /shard/* surface the same candidates — ids, locations,
// distances, coverage masks (computed shard-side in-process, derived from
// the wire keywords over HTTP) and, once the in-process side is hydrated,

// the same keyword strings.
func TestShardDataPlaneParity(t *testing.T) {
	parts, _ := districts()
	ctx := context.Background()
	same := func(what string, local *shard.EngineBackend, a, b shard.Candidate) {
		t.Helper()
		local.Hydrate(&a)
		if a.GID != b.GID || a.Loc != b.Loc || a.Mask != b.Mask || !slices.Equal(a.Words, b.Words) {
			t.Fatalf("%s: in-process %+v, over HTTP %+v", what, a, b)
		}
	}
	for _, ds := range parts {
		eng := core.NewEngine(ds, 0)
		srv := httptest.NewServer(NewWith(eng, Options{}))
		t.Cleanup(srv.Close)
		local := shard.WrapEngine(ds.Name, eng.DS, eng.Inv)
		remote := shard.NewHTTPBackend(&client.Client{Base: srv.URL, MaxRetries: -1})
		for _, loc := range []geo.Point{{X: 0, Y: 0}, {X: 51, Y: 40}, {X: 104, Y: 3}} {
			q := shard.ShardQuery{Loc: loc, Words: []string{"park", "absent", "cafe", "museum"}}
			ln, err := local.NN(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			rn, err := remote.NN(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			for i := range q.Words {
				if ln.Hits[i].Found != rn.Hits[i].Found || ln.Hits[i].Dist != rn.Hits[i].Dist {
					t.Fatalf("%s nn %q: in-process %+v, over HTTP %+v", ds.Name, q.Words[i], ln.Hits[i], rn.Hits[i])
				}
				if ln.Hits[i].Found {
					same(ds.Name+" nn "+q.Words[i], local, ln.Hits[i].Cand, rn.Hits[i].Cand)
				}
			}
			for _, radius := range []float64{0, 3, 60, 500} {
				lc, err := local.Collect(ctx, q, radius)
				if err != nil {
					t.Fatal(err)
				}
				rc, err := remote.Collect(ctx, q, radius)
				if err != nil {
					t.Fatal(err)
				}
				if len(lc.Objects) != len(rc.Objects) {
					t.Fatalf("%s collect r=%v: %d objects in-process, %d over HTTP", ds.Name, radius, len(lc.Objects), len(rc.Objects))
				}
				for i := range lc.Objects {
					same(fmt.Sprintf("%s collect r=%v [%d]", ds.Name, radius, i), local, lc.Objects[i], rc.Objects[i])
				}
			}
		}
	}
}

// TestScatterQueryReturnsFullKeywordLists: the router solves over
// coverage masks, but /query still reports every member's complete
// keyword list — words outside the query included — for in-process shards
// (hydrated after the solve) and HTTP shards (decoded off the wire) alike.
func TestScatterQueryReturnsFullKeywordLists(t *testing.T) {
	_, all := districts()
	rt, err := shard.NewLocalRouter(all, 3, shard.Grid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	local := httptest.NewServer(NewScatterGather(rt, Options{}))
	t.Cleanup(local.Close)
	remote, _, _ := scatterFleet(t, core.DegradeFail)
	for _, coord := range []*httptest.Server{local, remote} {
		var got queryResponse
		getJSON(t, coord.URL+"/query?x=50&y=78&kw=museum,park", http.StatusOK, &got)
		outside := false
		for _, o := range got.Objects {
			var want []string
			for i := range all.Objects {
				if p := all.Objects[i].Loc; p.X == o.X && p.Y == o.Y {
					for _, id := range all.Objects[i].Keywords {
						want = append(want, all.Vocab.Word(id))
					}
				}
			}
			if !slices.Equal(o.Keywords, want) {
				t.Fatalf("member at (%v, %v) reports keywords %v, object has %v", o.X, o.Y, o.Keywords, want)
			}
			outside = outside || slices.Contains(o.Keywords, "cafe")
		}
		if len(got.Objects) == 0 || !outside {
			t.Fatalf("fixture should answer with the {cafe, park} object: %+v", got.Objects)
		}
	}
}
