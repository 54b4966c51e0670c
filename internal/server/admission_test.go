package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/epoch"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/metrics"
	"coskq/internal/testutil"
)

// blockingHandler parks requests until released, reporting each arrival.
type blockingHandler struct {
	entered chan struct{}
	release chan struct{}
}

func newBlockingHandler() *blockingHandler {
	return &blockingHandler{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (h *blockingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.entered <- struct{}{}
	select {
	case <-h.release:
	case <-r.Context().Done():
	}
	w.WriteHeader(http.StatusOK)
}

// TestAdmissionShedsDeterministically fills one execution slot and a
// one-deep queue, then asserts the next request is refused immediately
// with 429 + Retry-After, the shed metrics agree, and the queued
// request is still served once the slot frees.
func TestAdmissionShedsDeterministically(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	reg := metrics.NewRegistry()
	h := newBlockingHandler()
	adm := newAdmission(reg, 1, 1, 0, 7*time.Second)
	srv := httptest.NewServer(adm.middleware(h))
	defer srv.Close()

	type reply struct {
		status int
		err    error
	}
	get := func(ch chan<- reply) {
		resp, err := http.Get(srv.URL)
		if err != nil {
			ch <- reply{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ch <- reply{resp.StatusCode, nil}
	}

	first := make(chan reply, 1)
	go get(first)
	<-h.entered // request 1 holds the slot
	testutil.WaitFor(t, 5*time.Second, "inflight gauge", func() bool {
		return reg.Gauge("coskq_inflight").Value() == 1
	})

	second := make(chan reply, 1)
	go get(second)
	testutil.WaitFor(t, 5*time.Second, "queued gauge", func() bool {
		return reg.Gauge("coskq_admission_queued").Value() == 1
	})

	// Request 3 finds slot and queue full: shed now, not after a wait.
	start := time.Now()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("shed took %v, want immediate", waited)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want \"7\"", ra)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body["error"] == "" {
		t.Errorf("429 body not the JSON error envelope: %v %v", body, err)
	}

	close(h.release) // request 1 finishes; request 2 gets the slot
	if r := <-first; r.err != nil || r.status != http.StatusOK {
		t.Errorf("first request: %+v", r)
	}
	if r := <-second; r.err != nil || r.status != http.StatusOK {
		t.Errorf("queued request: %+v, want eventual 200", r)
	}

	if got := reg.Counter("coskq_shed_requests_total").Value(); got != 1 {
		t.Errorf("coskq_shed_requests_total = %d, want 1", got)
	}
	if got := reg.Counter(`coskq_shed_requests_total{reason="queue_full"}`).Value(); got != 1 {
		t.Errorf("queue_full labeled counter = %d, want 1", got)
	}
	testutil.WaitFor(t, 5*time.Second, "inflight to drain", func() bool {
		return reg.Gauge("coskq_inflight").Value() == 0
	})
}

// TestAdmissionQueueTimeout: a queued request that never gets a slot is
// shed with 429 once QueueTimeout elapses.
func TestAdmissionQueueTimeout(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	reg := metrics.NewRegistry()
	h := newBlockingHandler()
	adm := newAdmission(reg, 1, 4, 50*time.Millisecond, 0)
	srv := httptest.NewServer(adm.middleware(h))
	defer srv.Close()

	first := make(chan struct{})
	go func() {
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		close(first)
	}()
	<-h.entered

	resp, err := http.Get(srv.URL) // queues, then times out
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 after queue timeout", resp.StatusCode)
	}
	if got := reg.Counter(`coskq_shed_requests_total{reason="queue_timeout"}`).Value(); got != 1 {
		t.Errorf("queue_timeout labeled counter = %d, want 1", got)
	}
	close(h.release)
	<-first
}

// TestAdmissionClientGone: a caller that disconnects while queued is
// counted as shed (client_gone) and never reaches the handler.
func TestAdmissionClientGone(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	reg := metrics.NewRegistry()
	h := newBlockingHandler()
	adm := newAdmission(reg, 1, 4, 0, 0)
	srv := httptest.NewServer(adm.middleware(h))
	defer srv.Close()

	first := make(chan struct{})
	go func() {
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		close(first)
	}()
	<-h.entered

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	testutil.WaitFor(t, 5*time.Second, "request to queue", func() bool {
		return reg.Gauge("coskq_admission_queued").Value() == 1
	})
	cancel()
	if err := <-errCh; err == nil {
		t.Error("cancelled request reported success")
	}
	testutil.WaitFor(t, 5*time.Second, "client_gone shed", func() bool {
		return reg.Counter(`coskq_shed_requests_total{reason="client_gone"}`).Value() == 1
	})
	if len(h.entered) != 0 {
		t.Error("cancelled request reached the handler")
	}
	close(h.release)
	<-first
}

// TestServerDegradedQuery is the end-to-end anytime-answer path: a fault
// schedule trips the search mid-enumeration after the seed incumbent is
// known; with Degrade=incumbent the client gets 200 + the degraded
// marker (header and body) where the default policy returns 503, and
// the degraded counter increments.
func TestServerDegradedQuery(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	eng := cityEngine()
	eng.Degrade = core.DegradeIncumbent
	srv := httptest.NewServer(NewWith(eng, Options{}))
	defer srv.Close()

	defer fault.Arm(1, fault.Rule{Point: fault.OwnerEnum, Kind: fault.KindBudget, After: 1, Every: 1})()

	resp, err := http.Get(srv.URL + "/query?x=0&y=0&kw=cafe,museum")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d (%s), want 200 with a degraded answer", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Coskq-Degraded"); got != "budget" {
		t.Errorf("X-Coskq-Degraded = %q, want \"budget\"", got)
	}
	var q queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if !q.Degraded || q.Reason != "budget" || len(q.Objects) == 0 {
		t.Errorf("degraded body = %+v", q)
	}
	if got := eng.Metrics.DegradedTotal(); got != 1 {
		t.Errorf("coskq_degraded_queries_total = %d, want 1", got)
	}

	// Same schedule, default policy: the trip surfaces as 503.
	fault.Arm(1, fault.Rule{Point: fault.OwnerEnum, Kind: fault.KindBudget, After: 1, Every: 1})
	eng2 := cityEngine()
	srv2 := httptest.NewServer(NewWith(eng2, Options{}))
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/query?x=0&y=0&kw=cafe,museum")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("default policy status %d, want 503", resp2.StatusCode)
	}
}

// TestServerHandleFaultPoint: an armed server.handle rule converts into
// the typed error path (503 for an injected budget trip) before any
// search runs, and an injected crash surfaces as the recover
// middleware's 500.
func TestServerHandleFaultPoint(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	eng := cityEngine()
	srv := httptest.NewServer(New(eng, Options{}))
	defer srv.Close()

	fault.Arm(1, fault.Rule{Point: fault.ServerHandle, Kind: fault.KindBudget, Every: 1})
	resp, err := http.Get(srv.URL + "/query?x=0&y=0&kw=cafe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("injected budget: status %d, want 503", resp.StatusCode)
	}

	fault.Arm(1, fault.Rule{Point: fault.ServerHandle, Kind: fault.KindPanic, Every: 1})
	resp, err = http.Get(srv.URL + "/query?x=0&y=0&kw=cafe")
	fault.Disarm()
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]string
	jerr := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("injected crash: status %d, want 500", resp.StatusCode)
	}
	if jerr != nil || body["error"] == "" {
		t.Errorf("500 body not the JSON error envelope: %v %v", body, jerr)
	}
}

// gridEngine is a 64-object fixture on which a four-keyword query
// expands several search nodes.
func gridEngine() *core.Engine {
	b := dataset.NewBuilder("grid")
	words := []string{"cafe", "museum", "park", "inn"}
	for i := 0; i < 64; i++ {
		b.Add(geo.Point{X: float64(i%8*3 + i/8%2), Y: float64(i / 8 * 3)}, words[i%4], words[i*7/3%4])
	}
	return core.NewEngine(b.Build(), 0)
}

// TestServerNodeBudgetFromDeadline: with Config.NodeBudgetPerSecond set
// and a server timeout, every solve derives its own node budget from the
// time left — here max(1, 0.001/s × 5 s) = 1 node — on each path that
// solves on the engine, including a live generation the applier derived
// under the seed's Config. The query expands more than one node unbudgeted, so a derived
// budget must show as a budget-degraded answer under the engine's own
// policy (or a 503 under DegradeFail).
func TestServerNodeBudgetFromDeadline(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	words := []string{"cafe", "museum", "park", "inn"}
	query := "/query?x=10&y=10&kw=" + strings.Join(words, ",")
	base := gridEngine()
	kws, err := base.ResolveWords(words)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Loc: geo.Point{X: 10, Y: 10}, Keywords: kws}
	if res, err := base.Solve(q, core.MaxSum, core.OwnerExact); err != nil || res.Stats.NodesExpanded < 2 {
		t.Fatalf("unbudgeted solve expands %d nodes (err %v); a budget of 1 needs at least 2 to trip", res.Stats.NodesExpanded, err)
	}
	rated := func(policy core.DegradePolicy) *core.Engine {
		eng := gridEngine()
		eng.Degrade = policy
		eng.NodeBudgetPerSecond = 0.001
		return eng
	}
	opts := Options{Timeout: 5 * time.Second}
	wantBudget := func(t *testing.T, degraded bool, reason string, members int) {
		t.Helper()
		if !degraded || reason != string(core.DegradeReasonBudget) || members == 0 {
			t.Fatalf("degraded=%v reason=%q members=%d, want a budget-degraded answer", degraded, reason, members)
		}
	}
	query1 := func(t *testing.T, h http.Handler, status int) queryResponse {
		t.Helper()
		srv := httptest.NewServer(h)
		defer srv.Close()
		var got queryResponse
		getJSON(t, srv.URL+query, status, &got)
		return got
	}

	t.Run("query", func(t *testing.T) {
		got := query1(t, NewWith(rated(core.DegradeIncumbent), opts), http.StatusOK)
		wantBudget(t, got.Degraded, got.Reason, len(got.Objects))
	})
	t.Run("fail policy", func(t *testing.T) {
		query1(t, NewWith(rated(core.DegradeFail), opts), http.StatusServiceUnavailable)
	})
	t.Run("no deadline", func(t *testing.T) {
		if got := query1(t, NewWith(rated(core.DegradeIncumbent), Options{}), http.StatusOK); got.Degraded {
			t.Fatalf("no deadline, yet a budget was derived: %+v", got)
		}
	})
	t.Run("live after a write", func(t *testing.T) {
		st := epoch.New(rated(core.DegradeIncumbent), epoch.Options{})
		defer st.Close()
		srv := httptest.NewServer(NewLive(st, opts))
		defer srv.Close()
		postJSON(t, srv.URL+"/objects", map[string]any{
			"ops": []map[string]any{{"op": "insert", "x": 50.0, "y": 50.0, "kw": []string{"bar"}}},
		}, http.StatusOK, nil)
		waitStoreIdle(t, st)
		testutil.WaitFor(t, 5*time.Second, "generation swap", func() bool { return st.Current() >= 1 })
		var got queryResponse
		getJSON(t, srv.URL+query, http.StatusOK, &got)
		wantBudget(t, got.Degraded, got.Reason, len(got.Objects))
	})
	t.Run("batch", func(t *testing.T) {
		srv := httptest.NewServer(NewWith(rated(core.DegradeIncumbent), opts))
		defer srv.Close()
		got, _ := postBatch(t, srv.URL, batchRequest{
			Queries: []batchQueryJSON{{X: 10, Y: 10, Kw: words}},
		}, http.StatusOK)
		it := got.Results[0]
		wantBudget(t, it.Degraded, it.Reason, len(it.Objects))
	})
}
