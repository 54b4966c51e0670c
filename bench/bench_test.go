package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coskq/internal/datagen"
)

// tiny returns a copy of the named workload scaled down for tests: the
// same traffic shape on 1,500 objects with a 64-request pool.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.profile = datagen.Config{Name: "tiny", NumObjects: 1500, VocabSize: 60, AvgKeywords: 3.9, MaxKeywords: 12, Clusters: 10, Seed: 1}
	c.pool = 64
	if c.batch > 0 {
		c.pool = 4
	}
	return &c
}

// serve prepares the tiny workload and serves it from the in-process
// handler stack over a real loopback listener.
func serve(t *testing.T, name string, seed int64) (*prepared, string) {
	t.Helper()
	p, err := prepare(t.TempDir(), tiny(t, name), seed)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := newInProcess(p.w, p.eng)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ip.handler)
	t.Cleanup(func() {
		ts.Close()
		ip.close()
	})
	return p, ts.URL
}

// fakeTarget stands in for the server process: the harness's own CPU
// time and a fixed resident set.
type fakeTarget struct{}

func (fakeTarget) cpu() (time.Duration, error)  { return selfCPU(), nil }
func (fakeTarget) peakRSSMiB() (float64, error) { return 1, nil }

func specOf(t *testing.T) *benchSpec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestTailPercentile(t *testing.T) {
	asc := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n               int
		value, reported float64
	}{
		{2000, 1980, 99}, // 20 samples beyond p99: report it
		{1100, 1089, 99}, // exactly 11 beyond
		{500, 490, 98},   // only 5 beyond p99: fall back to the highest percentile with 10 beyond
		{11, 1, 100.0 / 11},
		{10, 5, 50}, // too small for any tail: the median
		{0, 0, 0},
	} {
		v, p := tailPercentile(asc(c.n), 99)
		if v != c.value || p != c.reported {
			t.Errorf("n=%d: got value %v at p%v, want %v at p%v", c.n, v, p, c.value, c.reported)
		}
	}
}

func TestSlices(t *testing.T) {
	w := &window{dur: 3 * time.Second}
	for i := 0; i < 30; i++ { // 10 reads per second, the middle second slower
		rtt := time.Millisecond
		if i/10 == 1 {
			rtt = 5 * time.Millisecond
		}
		w.reads = append(w.reads, readSample{end: time.Duration(i) * 100 * time.Millisecond, rtt: rtt, queries: 2})
	}
	w.reads = append(w.reads, readSample{end: 3100 * time.Millisecond, rtt: time.Hour, queries: 2}) // finished after the window
	rates, p50 := w.slices()
	if len(rates) != 3 || rates[0] != 20 || rates[1] != 20 || rates[2] != 20 {
		t.Errorf("rates %v, want [20 20 20]", rates)
	}
	if median(p50) != 1 {
		t.Errorf("median of slice medians %v, want 1 (one slow slice must not move it)", p50)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.t0.Add(time.Duration(ms) * time.Millisecond) }
	req := r.add("client.request", at(0), at(100), 0, 1)
	rtt := r.add("client.rtt", at(10), at(90), req, 1)
	// An in-process rung re-executes the request later: its interval lies
	// outside its parent's, and self time is still the duration difference.
	handler := r.add("server.handler", at(200), at(250), rtt, 1)
	r.add("core.solve", at(300), at(335), handler, 1)
	r.add("core.solve_serial", at(400), at(430), 0, 1) // no parent: not subtracted anywhere

	self := selfTimes(r.snapshot())
	ms := func(id int) float64 { return float64(self[id]) / 1e6 }
	if ms(req) != 20 || ms(rtt) != 30 || ms(handler) != 15 {
		t.Errorf("self times request %v rtt %v handler %v, want 20 30 15", ms(req), ms(rtt), ms(handler))
	}
	if got := selfByName(r.snapshot(), "server.handler"); len(got) != 1 || got[0] != 15e6 {
		t.Errorf("selfByName = %v", got)
	}
	if d := pairedDiff([]float64{5, 7, 9}, []float64{1, 2}); len(d) != 2 || d[0] != 4 || d[1] != 5 {
		t.Errorf("pairedDiff = %v", d)
	}
	var off *recorder
	if off.add("x", at(0), at(1), 0, 0) != 0 {
		t.Error("a nil recorder must record nothing")
	}
}

// poolBytes is a pool's wire form: what the server receives.
func poolBytes(pool []request) []byte {
	var b bytes.Buffer
	for _, r := range pool {
		b.WriteString(r.path)
		b.Write(r.body)
	}
	return b.Bytes()
}

func churnBytes(seed int64) []byte {
	var b bytes.Buffer
	s := newChurn(seed, 1500, 60)
	for i := 0; i < 8; i++ {
		b.Write(churnBody(nextChurn(s)))
	}
	return b.Bytes()
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		w := tiny(t, w.name)
		pool := func(seed int64) []byte {
			p, err := prepare(t.TempDir(), w, seed)
			if err != nil {
				t.Fatal(err)
			}
			return poolBytes(p.pool)
		}
		if !bytes.Equal(pool(7), pool(7)) {
			t.Errorf("%s: same seed, different request pools", w.name)
		}
		if bytes.Equal(pool(7), pool(8)) {
			t.Errorf("%s: different seeds, same request pool", w.name)
		}
	}
	if !bytes.Equal(churnBytes(7), churnBytes(7)) {
		t.Error("same seed, different churn schedules")
	}
	if bytes.Equal(churnBytes(7), churnBytes(8)) {
		t.Error("different seeds, same churn schedule")
	}
}

func TestVerifierRejectsTamperedAnswers(t *testing.T) {
	p, base := serve(t, "hotel-exact", 3)
	r := &p.pool[0]
	resp, err := http.Get(base + r.path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var a answer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	check := func(a answer) error {
		body, _ := json.Marshal(a)
		_, err := verifyResponse(r, body)
		return err
	}
	if err := check(a); err != nil {
		t.Fatalf("the served answer must verify: %v", err)
	}
	for _, c := range []struct {
		name   string
		tamper func(a *answer)
	}{
		{"cost inflated", func(a *answer) { a.Cost *= 1.001 }},
		{"object moved", func(a *answer) { a.Objects[0].X += 500 }},
		{"keywords missing", func(a *answer) {
			for i := range a.Objects {
				a.Objects[i].Keywords = nil
			}
		}},
		{"no objects", func(a *answer) { a.Objects = nil }},
		{"degraded", func(a *answer) { a.Degraded = true }},
		{"item error", func(a *answer) { a.Error = "query cancelled" }},
	} {
		b := a
		b.Objects = append([]answerObject(nil), a.Objects...)
		c.tamper(&b)
		if check(b) == nil {
			t.Errorf("%s: tampered answer verified", c.name)
		}
	}
	// A self-consistent answer that is not the optimum: only the oracle catches it.
	worse := r.want[0]
	r.want[0] = worse * 0.9
	if check(a) == nil {
		t.Error("an answer costlier than the oracle's verified")
	}
	r.want[0] = worse
}

// TestWorkloadSmoke drives each workload's traffic for one second at the
// in-process handler stack and derives the end-to-end metrics from it.
func TestWorkloadSmoke(t *testing.T) {
	spec := specOf(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness defines %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		t.Run(sw.Name, func(t *testing.T) {
			t.Parallel()
			p, base := serve(t, sw.Name, 5)
			res, err := measure(p, spec.EndToEnd, 1, base, fakeTarget{}, []float64{0.1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 || len(res.problems) != 0 {
				t.Fatalf("attempted %d failed %d problems %v", res.Attempted, res.Failed, res.problems)
			}
			for _, m := range spec.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, every end-to-end metric must be positive", m.Name, res.Metrics[m.Name].Value)
				}
			}
		})
	}
}

// TestLadderSmoke climbs the whole ladder on the three workloads that
// between them reach every rung, and checks that each metric the code
// sets is declared in BENCHMARK.json.
func TestLadderSmoke(t *testing.T) {
	spec := specOf(t)
	for _, c := range []struct {
		name string
		must []string
	}{
		{"hotel-batch", []string{"server.handler_us", "core.solve_us", "core.batch_grouped_us_per_query", "core.nncache_hit_ratio", "irtree.nn_us", "geo.dist_ns"}},
		{"hotel-churn", []string{"client.net_self_us", "epoch.apply_ms", "epoch.pin_unpin_ns", "epoch.ops_per_apply", "write_visible_p50_ms", "server.write_ack_p50_us", "latency_p99_ms", "rss_peak_mb"}},
		{"gn-sharded", []string{"shard.route_us", "shard.collect_us", "shard.pool_objects", "shard.partition_ms", "client.trace_overhead_ratio"}},
	} {
		name, must := c.name, c.must
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, base := serve(t, name, 5)
			res, rec, err := climb(p, spec.PerLayer, 1, base, fakeTarget{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || len(res.problems) != 0 {
				t.Fatalf("failed %d problems %v", res.Failed, res.problems)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(spec.PerLayer))
			}
			for _, m := range must {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want a measured value", m, res.Metrics[m].Value)
				}
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := rec.write(path, traceFile{Workload: name}); err != nil {
				t.Fatal(err)
			}
			data, _ := os.ReadFile(path)
			var f traceFile
			if err := json.Unmarshal(data, &f); err != nil || len(f.Spans) == 0 {
				t.Fatalf("trace file: %d spans, err %v", len(f.Spans), err)
			}
		})
	}
}

func TestCompare(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "throughput_qps", Better: "higher", Bound: 0.10},
		{Name: "latency_p50_ms", Better: "lower", Bound: 0.10},
	}}
	set := func(qps, p50 float64) *resultFile {
		return &resultFile{Seed: 1, Seconds: 10, Workloads: map[string]*result{"hotel-exact": {
			Correct: true, Attempted: 1,
			Metrics: map[string]metric{"throughput_qps": {Value: qps}, "latency_p50_ms": {Value: p50}},
		}}}
	}
	old := filepath.Join(t.TempDir(), "old.json")
	data, _ := json.Marshal(set(1000, 2))
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		qps, p50  float64
		regressed bool
	}{
		{1000, 2, false},
		{920, 2.15, false}, // both worse, both inside the bound
		{880, 2, true},     // throughput 12 % down
		{1500, 2.3, true},  // a gain elsewhere does not excuse latency 15 % up
	} {
		var out strings.Builder
		got, err := compareFiles(&out, spec, old, set(c.qps, c.p50))
		if err != nil {
			t.Fatal(err)
		}
		if got != c.regressed {
			t.Errorf("qps %v p50 %v: regressed = %v, want %v\n%s", c.qps, c.p50, got, c.regressed, out.String())
		}
	}
}
