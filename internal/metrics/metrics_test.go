package metrics

import (
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero counter not zero")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// le semantics: bucket counts are per-bucket here, cumulative only in
	// the exposition. 0.5 and 1 land in le=1; 1.5 and 10 in le=10; 99 in
	// le=100; 1000 overflows.
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-1112) > 1e-9 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestNewHistogramPanics(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// TestParallelRecordingExact is the satellite requirement: counters and
// histograms must be exact — not approximately right — under parallel
// recording.
func TestParallelRecordingExact(t *testing.T) {
	const goroutines = 16
	const perG = 2000
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.25, 0.5, 0.75})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("hits") // concurrent get-or-create on purpose
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(float64(i%4) * 0.25) // 0, .25, .5, .75 round-robin
			}
		}(g)
	}
	wg.Wait()
	const total = goroutines * perG
	if got := r.Counter("hits").Value(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	s := h.Snapshot()
	if s.Count != total {
		t.Fatalf("histogram count = %d, want %d", s.Count, total)
	}
	// Each of the 4 values appears exactly total/4 times; 0 and .25 share
	// the first bucket.
	want := []uint64{total / 2, total / 4, total / 4, 0}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	wantSum := float64(total/4) * (0 + 0.25 + 0.5 + 0.75)
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestWriteTextExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("coskq_queries_total").Add(3)
	r.Counter(`coskq_queries_total{cost="MaxSum"}`).Add(2)
	r.Counter(`coskq_queries_total{cost="Dia"}`).Inc()
	h := r.Histogram("coskq_query_seconds", []float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(7)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE coskq_queries_total counter\n",
		"coskq_queries_total 3\n",
		`coskq_queries_total{cost="Dia"} 1` + "\n",
		`coskq_queries_total{cost="MaxSum"} 2` + "\n",
		"# TYPE coskq_query_seconds histogram\n",
		`coskq_query_seconds_bucket{le="0.001"} 1` + "\n",
		`coskq_query_seconds_bucket{le="0.1"} 2` + "\n",
		`coskq_query_seconds_bucket{le="+Inf"} 3` + "\n",
		"coskq_query_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line for the whole labeled counter family.
	if n := strings.Count(out, "# TYPE coskq_queries_total"); n != 1 {
		t.Errorf("%d TYPE lines for coskq_queries_total, want 1", n)
	}
}

// expositionLine matches either a TYPE comment or a sample line of the
// Prometheus text format: `name value` or `name{labels} value`.
var (
	typeLine   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|histogram)$`)
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (\+Inf|-?[0-9].*)$`)
)

// buildExpositionFixture populates a registry the way the serve path
// does: plain and labeled counters, plus plain and labeled histograms.
func buildExpositionFixture() *Registry {
	r := NewRegistry()
	r.Counter("coskq_queries_total").Add(7)
	r.Counter(`coskq_queries_total{cost="MaxSum",method="OwnerExact"}`).Add(4)
	r.Counter(`coskq_queries_total{cost="Dia",method="Cao-Exact"}`).Add(3)
	r.Counter("coskq_query_errors_total").Inc()
	h := r.Histogram("coskq_query_seconds", []float64{0.001, 0.1, 10})
	for _, v := range []float64{0.0004, 0.002, 0.05, 3, 1e6} {
		h.Observe(v)
	}
	hl := r.Histogram(`coskq_query_seconds{cost="MaxSum"}`, []float64{0.001, 0.1})
	hl.Observe(0.01)
	return r
}

// TestWriteTextStrictFormat parses the exposition line by line: every
// line must be a well-formed TYPE comment or sample, every sample's
// family must be declared by a preceding TYPE line, bucket series must
// be cumulative (monotone, ending at the count), and TYPE families must
// appear in sorted order exactly once.
func TestWriteTextStrictFormat(t *testing.T) {
	r := buildExpositionFixture()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("exposition does not end in a newline")
	}

	declared := map[string]string{} // family -> kind
	var families []string
	lastBucket := map[string]uint64{} // series (with labels minus le) -> last cumulative value
	counts := map[string]uint64{}     // family{labels} -> _count value
	for ln, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			m := typeLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE comment %q", ln+1, line)
			}
			fam := strings.Fields(line)[2]
			if _, dup := declared[fam]; dup {
				t.Fatalf("line %d: family %s declared twice", ln+1, fam)
			}
			declared[fam] = m[1]
			families = append(families, fam)
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		name, labels, value := m[1], m[2], m[4]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("line %d: unparseable value %q: %v", ln+1, value, err)
		}
		fam := name
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, sfx); base != name && declared[base] == "histogram" {
				fam = base
			}
		}
		if declared[fam] == "" {
			t.Fatalf("line %d: sample %q precedes its TYPE declaration", ln+1, line)
		}
		if declared[fam] == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				series := fam + stripLe(labels)
				cum, err := strconv.ParseUint(value, 10, 64)
				if err != nil {
					t.Fatalf("line %d: bucket value %q: %v", ln+1, value, err)
				}
				if cum < lastBucket[series] {
					t.Fatalf("line %d: bucket series %s not cumulative (%d after %d)", ln+1, series, cum, lastBucket[series])
				}
				lastBucket[series] = cum
			case strings.HasSuffix(name, "_count"):
				n, _ := strconv.ParseUint(value, 10, 64)
				counts[fam+labels] = n
			}
		}
	}

	if !sort.StringsAreSorted(families) {
		t.Fatalf("TYPE families out of order: %v", families)
	}
	if len(counts) == 0 {
		t.Fatal("no histogram _count series parsed")
	}
	for series, n := range counts {
		if got := lastBucket[series]; got != n {
			t.Fatalf("series %s: +Inf bucket %d != count %d", series, got, n)
		}
	}
}

// stripLe removes the le label from a bucket label set, leaving the
// histogram's own labels: `{cost="X",le="1"}` → `{cost="X"}`, `{le="1"}` → “.
func stripLe(labels string) string {
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for _, kv := range strings.Split(inner, ",") {
		if !strings.HasPrefix(kv, "le=") {
			kept = append(kept, kv)
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}

// TestWriteTextDeterministic: two renders of the same registry are
// byte-for-byte identical, and a labeled histogram family gets one TYPE
// line with valid derived series names.
func TestWriteTextDeterministic(t *testing.T) {
	r := buildExpositionFixture()
	render := func() string {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first := render()
	for i := 0; i < 10; i++ {
		if got := render(); got != first {
			t.Fatalf("render %d differs from first:\n%s\n---\n%s", i, got, first)
		}
	}
	if n := strings.Count(first, "# TYPE coskq_query_seconds histogram"); n != 1 {
		t.Errorf("%d TYPE lines for coskq_query_seconds, want 1", n)
	}
	for _, want := range []string{
		`coskq_query_seconds_bucket{cost="MaxSum",le="0.1"} 1` + "\n",
		`coskq_query_seconds_sum{cost="MaxSum"} 0.01` + "\n",
		`coskq_query_seconds_count{cost="MaxSum"} 1` + "\n",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("exposition missing %q:\n%s", want, first)
		}
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatal("zero gauge not zero")
	}
	g.Set(4)
	g.Add(2.5)
	g.Add(-1.5)
	if g.Value() != 5 {
		t.Fatalf("gauge = %v, want 5", g.Value())
	}
	g.Set(-3)
	if g.Value() != -3 {
		t.Fatalf("gauge = %v, want -3 (gauges may decrease)", g.Value())
	}
}

func TestGaugeConcurrentAddExact(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
}

func TestWriteTextGaugeExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Inc()
	r.Gauge("coskq_inflight").Set(4)
	r.Gauge(`coskq_inflight{method="OwnerExact"}`).Set(8)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "# TYPE c_total counter\n" +
		"c_total 1\n" +
		"# TYPE coskq_inflight gauge\n" +
		"coskq_inflight 4\n" +
		"coskq_inflight{method=\"OwnerExact\"} 8\n"
	if got != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Same instance on repeated lookup.
	if r.Gauge("coskq_inflight").Value() != 4 {
		t.Fatal("gauge lookup did not return the registered instance")
	}
}
