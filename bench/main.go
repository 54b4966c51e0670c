// Command bench is the repository's benchmark (see README.md beside this
// file and /BENCHMARK.json). It builds cmd/coskq-server, generates every
// input from -seed in-process, drives a real coskq-server process at its
// default flags over loopback, verifies every answer against an
// in-process oracle and prints every metric by name with its unit.
//
//	bash bench/run.sh -seed 1                      # all workloads, end-to-end metrics
//	bash bench/run.sh -seed 1 -workload hotel-thin # one workload
//	bash bench/run.sh -seed 1 -trace 1             # the traced run: per-layer metrics
//	bash bench/run.sh -seed 1 -compare old.json    # run, then gate against an earlier result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
)

// coldStarts is how many times a run starts the server from nothing;
// setup_s is their median.
const coldStarts = 9

// metricSpec is one metric declared in /BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is /BENCHMARK.json: the one place metric names, units,
// directions and regression bounds are declared.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. The first four
// fields, alone on the last line of standard output, are the contract
// with the benchmark driver.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     map[string]string // per-metric context for the printed table
	context   []string          // printed lines that are not metrics of this run
	problems  []string          // why Correct is false
}

// newResult starts a result holding every metric of specs at zero, so a
// run prints each declared metric even where a workload does not
// exercise its layer.
func newResult(specs []metricSpec) *result {
	r := &result{Metrics: map[string]metric{}, notes: map[string]string{}}
	for _, s := range specs {
		r.Metrics[s.Name] = metric{Unit: s.Unit}
	}
	return r
}

// set records a measured value for a declared metric.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		r.problems = append(r.problems, "metric "+name+" is not declared in BENCHMARK.json")
		return
	}
	m.Value = v
	r.Metrics[name] = m
}

func (r *result) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// also prints a value that is a per-layer metric, and so not part of
// this (untraced) run's result line.
func (r *result) also(name string, v float64, unit, format string, args ...any) {
	r.context = append(r.context, fmt.Sprintf("(%s %.6f %s: %s; a per-layer metric, reported by the traced run)", name, v, unit, fmt.Sprintf(format, args...)))
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// count folds a window's request counts and first failure into r.
func (r *result) count(w *window) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	if w.firstErr != nil {
		r.problem("%d of %d requests failed, first: %v", w.failed, w.attempted, w.firstErr)
	}
}

// judge settles Correct: something was attempted, nothing failed and no
// check found a problem.
func (r *result) judge() {
	r.Correct = len(r.problems) == 0 && r.Failed == 0 && r.Attempted > 0
}

// print writes the metric table and, last, the driver's JSON line.
func (r *result) print(workload string) {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%-12s %-38s %16.6f %-10s %s\n", workload, name, m.Value, m.Unit, r.notes[name])
	}
	for _, c := range r.context {
		fmt.Printf("%-12s %s\n", workload, c)
	}
	for _, p := range r.problems {
		fmt.Printf("%-12s PROBLEM %s\n", workload, p)
	}
	line, _ := json.Marshal(r)
	fmt.Printf("%s\n", line)
}

// prepared is one workload's inputs, all generated from the seed.
type prepared struct {
	w    *workload
	seed int64
	ds   *dataset.Dataset
	eng  *core.Engine // in-process engine over ds: the oracle and the ladder run on it
	pool []request
	gob  string // ds on disk, what the server loads
}

// prepare generates w's inputs from seed, solves the oracle and writes
// the dataset into dir for the server to load.
func prepare(dir string, w *workload, seed int64) (*prepared, error) {
	p := &prepared{w: w, seed: seed, gob: filepath.Join(dir, w.name+".gob")}
	p.ds = datagen.Generate(w.profile)
	p.eng = core.NewEngine(p.ds, 0)
	p.pool = buildPool(w, p.ds, p.eng.Inv, seed)
	if !w.live {
		if err := solveOracle(p.eng, p.pool); err != nil {
			return nil, err
		}
	}
	return p, p.ds.Save(p.gob)
}

func (p *prepared) driver(base string) *driver {
	d := &driver{base: base, w: p.w, pool: p.pool}
	if p.w.live {
		d.churn = newChurn(p.seed, p.ds.Len(), p.ds.Vocab.Len())
	}
	return d
}

// warmup is the unrecorded closed-loop time before a measured window.
func warmup(seconds int) time.Duration { return time.Duration(seconds) * time.Second / 5 }

// target is what the measurements read from the process under test.
type target interface {
	cpu() (time.Duration, error)
	peakRSSMiB() (float64, error)
}

// endToEnd is the untraced run: cold starts, warm-up, one measured
// closed-loop window, every end-to-end metric.
func (h *harness) endToEnd(p *prepared, specs []metricSpec, seconds int) (*result, error) {
	var srv *serverProc
	setups := make([]float64, coldStarts)
	for i := range setups {
		if srv != nil {
			srv.stop()
		}
		var took time.Duration
		var err error
		if srv, took, err = h.start(p.w, p.gob); err != nil {
			return nil, err
		}
		setups[i] = took.Seconds()
	}
	defer srv.stop()
	return measure(p, specs, seconds, srv.base, srv, setups)
}

// measure warms the server at base up, drives one measured window and
// derives the end-to-end metrics from it.
func measure(p *prepared, specs []metricSpec, seconds int, base string, t target, setups []float64) (*result, error) {
	res := newResult(specs)
	d := p.driver(base)
	res.count(d.run(warmup(seconds), nil))
	cpu0, err := t.cpu()
	if err != nil {
		return nil, err
	}
	win := d.run(time.Duration(seconds)*time.Second, nil)
	cpu1, err := t.cpu()
	if err != nil {
		return nil, err
	}
	rss, err := t.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res.count(win)
	if p.w.live {
		if err := d.checkLive(); err != nil {
			res.problem("%v", err)
		}
	}

	rates, p50s := win.slices()
	p99, reported := tailPercentile(sorted(allIn(rtts(win.reads), time.Millisecond)), 99)
	res.set("setup_s", median(setups))
	res.note("setup_s", "median of %d cold starts %.4f, exec to first 200 from /healthz", len(setups), setups)
	res.set("throughput_qps", median(rates))
	res.note("throughput_qps", "median of %d one-second slices %.0f, %d verified queries", len(rates), rates, win.queries())
	res.set("latency_p50_ms", median(p50s))
	res.note("latency_p50_ms", "median of the slices' medians %.4f, %d read requests", p50s, len(win.reads))
	res.also("latency_p99_ms", p99, "ms", "p%.4g of %d read requests", reported, len(win.reads))
	res.set("cpu_ms_per_query", ratio(float64((cpu1-cpu0).Milliseconds()), float64(win.queries())))
	res.note("cpu_ms_per_query", "server utime+stime %v over the window", cpu1-cpu0)
	res.also("rss_peak_mb", rss, "MiB", "VmHWM at the end of the window")
	if p.w.live {
		vis := sorted(allIn(win.visible, time.Millisecond))
		res.also("write_visible_p50_ms", quantile(vis, 0.5), "ms", "p90 %.3f, %d write batches", quantile(vis, 0.9), len(vis))
	}
	return res, nil
}

func rtts(reads []readSample) []time.Duration {
	out := make([]time.Duration, len(reads))
	for i, s := range reads {
		out[i] = s.rtt
	}
	return out
}

// resultFile is the -out file: everything -compare needs from one set
// of runs.
type resultFile struct {
	Env       environment        `json:"env"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one name from BENCHMARK.json")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 0, "length of the measured window (0 = run_seconds from BENCHMARK.json)")
		traced  = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and bench/out/trace-<workload>.json")
		compare = flag.String("compare", "", "earlier -out file: after the run, print each end-to-end delta against its bound and exit non-zero past it")
		out     = flag.String("out", "", "result file (default bench/out/result.json)")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	run := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		run = []*workload{w}
	}
	h, err := newHarness(root)
	if err != nil {
		return fail(err)
	}
	defer h.close()

	file := resultFile{Env: currentEnv(root), Seed: *seed, Seconds: *seconds, Trace: *traced == 1, Workloads: map[string]*result{}}
	fmt.Printf("env %+v seed %d seconds %d trace %d\n", file.Env, *seed, *seconds, *traced)
	ok := true
	for _, w := range run {
		p, err := prepare(h.tmp, w, *seed)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		var res *result
		if file.Trace {
			res, err = h.traced(p, spec.PerLayer, *seconds, file.Env)
		} else {
			res, err = h.endToEnd(p, spec.EndToEnd, *seconds)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		res.judge()
		res.print(w.name)
		file.Workloads[w.name] = res
		ok = ok && res.Correct
	}

	if *out == "" {
		*out = filepath.Join(h.out, "result.json")
	}
	data, _ := json.MarshalIndent(file, "", " ")
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return fail(err)
	}
	if *compare != "" {
		regressed, err := compareFiles(os.Stderr, spec, *compare, &file)
		if err != nil {
			return fail(err)
		}
		ok = ok && !regressed
	}
	if !ok {
		return 1
	}
	return 0
}
