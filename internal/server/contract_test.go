package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coskq/internal/core"
	"coskq/internal/epoch"
	"coskq/internal/metrics"
	"coskq/internal/testutil"
)

// send issues one request and drains the response.
func send(t *testing.T, method, url, body string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestLivePinsReleased: after one request to every route of a live
// server — its construction included — no generation is pinned.
func TestLivePinsReleased(t *testing.T) {
	eng := cityEngine()
	reg := metrics.NewRegistry()
	eng.Metrics = core.NewEngineMetrics(reg)
	st := epoch.New(eng, epoch.Options{})
	t.Cleanup(st.Close)
	srv := httptest.NewServer(NewLive(st, Options{}))
	t.Cleanup(srv.Close)
	for _, r := range []struct{ method, path, body string }{
		{"GET", "/stats", ""},
		{"GET", "/query?x=0&y=0&kw=cafe,museum", ""},
		{"GET", "/query?x=0&y=0&kw=nope", ""},
		{"GET", "/topk?x=0&y=0&kw=cafe,museum&n=2", ""},
		{"POST", "/batch", `{"queries":[{"x":0,"y":0,"kw":["cafe"]},{"x":1,"y":1,"kw":["nope"]}]}`},
		{"GET", "/healthz", ""},
		{"GET", "/metrics", ""},
		{"GET", "/debug/slowlog", ""},
		{"GET", "/shard/meta", ""},
		{"GET", "/shard/nn?x=0&y=0&kw=cafe", ""},
		{"GET", "/shard/collect?x=0&y=0&r=10&kw=cafe", ""},
		{"POST", "/objects", `{"ops":[{"op":"insert","x":3,"y":3,"kw":["inn"]}]}`},
		{"POST", "/objects/stream", `{"op":"insert","x":4,"y":4,"kw":["inn"]}` + "\n"},
	} {
		send(t, r.method, srv.URL+r.path, r.body)
	}
	waitStoreIdle(t, st)
	pinned := reg.Gauge("coskq_epoch_pinned_readers")
	testutil.WaitFor(t, 2*time.Second, "every pin released", func() bool { return pinned.Value() == 0 })
}

// seriesOf returns the series names and labels a /metrics scrape lists.
func seriesOf(t *testing.T, url string) map[string]bool {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			out[line[:i]] = true
		}
	}
	return out
}

// TestMetricSeriesBounded: no request can mint a metric series. After a
// first round of requests with distinct unknown paths, unknown keywords
// and bad parameters, a second such round adds no series to /metrics.
func TestMetricSeriesBounded(t *testing.T) {
	live, _ := liveServer(t, epoch.Options{})
	static, _ := testServer(t)
	round := func(url string, r int) {
		for i := 0; i < 10; i++ {
			id := fmt.Sprintf("%d-%d", r, i)
			send(t, "GET", url+"/nope/"+id, "")
			send(t, "GET", url+"/query?x=0&y=0&kw=unknown"+id, "")
			send(t, "GET", url+"/query?x=bad"+id+"&y=0&kw=cafe", "")
			send(t, "GET", url+"/query?x=0&y=0&kw=cafe&method=m"+id+"&cost=c"+id, "")
			send(t, "GET", url+"/topk?x=0&y=0&kw=cafe&n=-"+id, "")
			send(t, "POST", url+"/batch", `{"method":"m`+id+`","queries":[{"x":0,"y":0,"kw":["u`+id+`"]}]}`)
			send(t, "GET", url+"/shard/nn?x=0&y=0&kw=w"+id, "")
		}
	}
	for _, srv := range []struct {
		name string
		url  string
	}{{"static", static.URL}, {"live", live.URL}} {
		seriesOf(t, srv.url) // the scrape's own series
		round(srv.url, 1)
		first := seriesOf(t, srv.url)
		round(srv.url, 2)
		for s := range seriesOf(t, srv.url) {
			if !first[s] {
				t.Errorf("%s: series %s appeared in the second round", srv.name, s)
			}
		}
	}
}

// TestJSONBodiesRejectTrailingData: POST /batch and POST /objects read
// exactly one JSON value. Anything after it but white space is a 400,
// so an NDJSON body or two concatenated batches sent to /objects apply
// nothing, where a decoder reading the first value would apply its ops
// and answer 200.
func TestJSONBodiesRejectTrailingData(t *testing.T) {
	srv, st := liveServer(t, epoch.Options{})
	const (
		batch  = `{"queries":[{"x":0,"y":0,"kw":["cafe"]}]}`
		op     = `{"op":"insert","x":3,"y":3,"kw":["inn"]}`
		insert = `{"ops":[` + op + `]}`
	)
	for _, tc := range []struct {
		name, route, body string
		status            int
	}{
		{"batch", "/batch", batch, http.StatusOK},
		{"batch, trailing white space", "/batch", batch + "\n \t\r\n", http.StatusOK},
		{"two batches", "/batch", batch + batch, http.StatusBadRequest},
		{"two batch lines", "/batch", batch + "\n" + batch + "\n", http.StatusBadRequest},
		{"batch, trailing text", "/batch", batch + " and more", http.StatusBadRequest},
		{"batch, stray brace", "/batch", batch + "}", http.StatusBadRequest},
		{"objects, trailing newline", "/objects", insert + "\n", http.StatusOK},
		{"two objects batches", "/objects", insert + insert, http.StatusBadRequest},
		{"two objects batch lines", "/objects", insert + "\n" + insert + "\n", http.StatusBadRequest},
		{"objects, trailing number", "/objects", insert + " 7", http.StatusBadRequest},
		{"objects NDJSON", "/objects", op + "\n" + op + "\n", http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+tc.route, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	// Only the one accepted /objects body applied its insert.
	if err := st.WaitIdle(context.Background()); err != nil {
		t.Fatal(err)
	}
	g := st.Pin()
	defer g.Unpin()
	if n, want := g.Eng.DS.Len(), cityEngine().DS.Len()+1; n != want {
		t.Fatalf("store holds %d objects, want %d: a refused body applied ops", n, want)
	}
}
