package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/epoch"
	"coskq/internal/geo"
	"coskq/internal/invindex"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
	"coskq/internal/metrics"
	"coskq/internal/pqueue"
	"coskq/internal/rtree"
	"coskq/internal/server"
	"coskq/internal/shard"
	"coskq/internal/trace"
)

// The traced run replays the head of a workload's pool through a
// ladder: the real HTTP round trip first, then the same requests
// in-process one layer at a time. This change adds no spans inside the
// program, so the harness records one span around each call it makes
// and a layer's self time is the paired difference between adjacent
// rungs on the same request.

// sink keeps the micro-rungs' results alive.
var sink float64

// buildReps is how often each index build is repeated; the median is
// reported.
const buildReps = 3

// ladderRequests is how many pool requests go through the ladder: 100
// per second of window (2,000 at the 20 s window the workloads were
// sized with), and a thirty-second of that for 64-query batches.
func ladderRequests(w *workload, seconds, pool int) int {
	n := min(max(100*seconds, 32), 2000)
	if w.batch > 0 {
		n = max(n/32, 2)
	}
	return min(n, pool)
}

// inProcess is the server's handler stack rebuilt inside the harness
// with the Options cmd/coskq-server sets at default flags.
type inProcess struct {
	handler http.Handler
	eng     *core.Engine  // serving-configured engine (single-engine modes)
	router  *shard.Router // sharded mode
	store   *epoch.Store  // live mode
}

func newInProcess(w *workload, base *core.Engine) (*inProcess, error) {
	reg := metrics.NewRegistry()
	opts := server.Options{
		Timeout:  30 * time.Second,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		Registry: reg,
	}
	if w.shards > 1 {
		part, _ := shard.PartitionerByName(w.partition)
		rt, err := shard.NewLocalRouter(base.DS, w.shards, part, 0)
		if err != nil {
			return nil, err
		}
		return &inProcess{handler: server.NewScatterGather(rt, opts), router: rt}, nil
	}
	eng := *base // shares the dataset and indexes
	eng.Metrics = core.NewEngineMetrics(reg)
	eng.EnableNNCache(w.nnCache)
	ip := &inProcess{eng: &eng}
	if w.live {
		ip.store = epoch.New(&eng, epoch.Options{})
		ip.handler = server.NewLive(ip.store, opts)
	} else {
		ip.handler = server.NewWith(&eng, opts)
	}
	return ip, nil
}

func (ip *inProcess) close() {
	if ip.store != nil {
		ip.store.Close()
	}
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timed runs fn and records it as a span.
func timed(rec *recorder, name string, parent, req int, fn func()) (id int, us float64) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	return rec.add(name, t0, t1, parent, req), in(t1.Sub(t0), time.Microsecond)
}

// medianBuild times fn buildReps times and returns the median in ms.
func medianBuild(rec *recorder, name string, fn func()) float64 {
	ms := make([]float64, buildReps)
	for i := range ms {
		_, us := timed(rec, name, 0, 0, fn)
		ms[i] = us / 1e3
	}
	return median(ms)
}

// traced is the separate traced run: it reports every per-layer metric
// and writes bench/out/trace-<workload>.json. End-to-end metrics are
// never taken from it.
func (h *harness) traced(p *prepared, specs []metricSpec, seconds int, env environment) (*result, error) {
	srv, _, err := h.start(p.w, p.gob)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	res, rec, err := climb(p, specs, seconds, srv.base, srv)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(h.out, "trace-"+p.w.name+".json")
	if err := rec.write(path, traceFile{Workload: p.w.name, Seed: p.seed, Env: env}); err != nil {
		return nil, err
	}
	fmt.Printf("%-12s trace written to %s\n", p.w.name, path)
	return res, nil
}

// climb runs the ladder against the server at base and returns the
// per-layer metrics with the spans they were computed from.
func climb(p *prepared, specs []metricSpec, seconds int, base string, srv target) (*result, *recorder, error) {
	res := newResult(specs)
	rec := newRecorder()
	w := p.w
	d := p.driver(base)
	client := newClient()
	defer client.CloseIdleConnections()

	// Rung 1: the real round trip, one request at a time.
	reqs := p.pool[:ladderRequests(w, seconds, len(p.pool))]
	rttSpan := make([]int, len(reqs))
	var rtt, respBytes []float64
	for i := range reqs {
		out := d.issue(client, &reqs[i], rec)
		res.Attempted++
		if out.err != nil {
			res.Failed++
			res.problem("ladder request %d: %v", i, out.err)
			continue
		}
		rttSpan[i] = out.span
		rtt = append(rtt, in(out.rtt, time.Microsecond))
		respBytes = append(respBytes, float64(out.bytes))
	}
	if res.Failed > 0 {
		return res, rec, nil
	}
	res.set("client.rtt_p50_us", median(rtt))
	res.set("server.resp_bytes", median(respBytes))

	// Rung 2: the handler stack in-process on the same requests.
	ip, err := newInProcess(w, p.eng)
	if err != nil {
		return nil, nil, err
	}
	defer ip.close()
	handlerSpan := make([]int, len(reqs))
	handlerUS := make([]float64, len(reqs))
	httpReqs := make([]*http.Request, len(reqs))
	writers := make([]*httptest.ResponseRecorder, len(reqs))
	for i, r := range reqs {
		method, body := r.wire()
		httpReqs[i] = httptest.NewRequest(method, r.path, body)
		writers[i] = httptest.NewRecorder()
	}
	before := mallocs()
	for i := range reqs {
		handlerSpan[i], handlerUS[i] = timed(rec, "server.handler", rttSpan[i], i+1, func() {
			ip.handler.ServeHTTP(writers[i], httpReqs[i])
		})
	}
	res.set("server.handler_allocs", float64(mallocs()-before)/float64(len(reqs)))
	for i, rw := range writers {
		if rw.Code != http.StatusOK {
			return nil, nil, fmt.Errorf("in-process handler: request %d: status %d: %.200s", i, rw.Code, rw.Body.Bytes())
		}
	}
	res.set("server.handler_us", median(handlerUS))
	if w.batch > 0 {
		res.set("server.batch_handler_ms", median(handlerUS)/1e3)
	}

	// Rung 3: what the handler blocks on — a routed query, a grouped
	// batch, or one engine solve — as a child span of the handler, then
	// the per-query rungs below it.
	l := &ladder{res: res, rec: rec, p: p, ip: ip, reqs: reqs, handlerSpan: handlerSpan}
	serving := ip.eng
	if serving == nil { // sharded: the single-engine rungs still run, as the router's baseline
		eng := *p.eng
		serving = &eng
	}
	if err := l.solves(serving); err != nil {
		return nil, nil, err
	}
	if w.shards > 1 {
		if err := l.routes(); err != nil {
			return nil, nil, err
		}
	}
	if w.batch > 0 {
		l.batches(serving)
	}
	if w.live {
		if err := l.epochs(); err != nil {
			return nil, nil, err
		}
	}
	l.primitives()
	l.builds()
	l.micro()

	// Self times by span arithmetic, over the ladder's spans only.
	ladderSpans := rec.snapshot()
	handlerSelf := median(selfByName(ladderSpans, "server.handler")) / 1e3
	res.set("server.self_us", handlerSelf)
	res.set("server.self_share", ratio(handlerSelf, median(handlerUS)))
	res.set("client.net_self_us", median(selfByName(ladderSpans, "client.rtt"))/1e3)

	// The closed loop again, span recording off then on: the throughput
	// ratio is what tracing costs, and /metrics before and after gives
	// the server's own counts for the same traffic.
	m0, err := scrape(client, base)
	if err != nil {
		return nil, nil, err
	}
	dur := time.Duration(seconds) * time.Second / 4
	res.count(d.run(warmup(seconds)/2, nil))
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, nil, err
	}
	self0 := selfCPU()
	plain := d.run(dur, nil)
	self1 := selfCPU()
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, nil, err
	}
	withSpans := d.run(dur, rec)
	res.count(plain)
	res.count(withSpans)
	if w.live {
		if err := d.checkLive(); err != nil {
			res.problem("%v", err)
		}
	}
	m1, err := scrape(client, base)
	if err != nil {
		return nil, nil, err
	}
	tracedRates, _ := withSpans.slices()
	plainRates, _ := plain.slices()
	res.set("client.trace_overhead_ratio", ratio(median(tracedRates), median(plainRates)))
	res.note("client.trace_overhead_ratio", "throughput with span recording on ÷ off, %v windows", dur)
	res.set("client.cpu_share", ratio(float64(self1-self0), float64(self1-self0+cpu1-cpu0)))
	non200, shed := 0.0, 0.0
	for series, v := range m1 {
		if strings.HasPrefix(series, "coskq_http_requests_total{") && !strings.Contains(series, `status="200"`) {
			non200 += v - m0[series]
		}
		if series == "coskq_shed_requests_total" {
			shed += v - m0[series]
		}
	}
	res.set("server.http_non200", non200)
	res.set("server.shed_total", shed)
	delta := func(series string) float64 { return m1[series] - m0[series] }
	if w.nnCache > 0 {
		// The server's own cache over both windows: its steady state, which
		// the few batches of the ladder would not reach.
		hits, misses := delta("coskq_nncache_hits_total"), delta("coskq_nncache_misses_total")
		res.set("core.nncache_hit_ratio", ratio(hits, hits+misses))
		res.set("core.nncache_evictions_per_kq", ratio(delta("coskq_nncache_evictions_total"), delta("coskq_queries_total")/1e3))
	}
	res.set("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	p99, reported := tailPercentile(sorted(allIn(rtts(plain.reads), time.Millisecond)), 99)
	res.set("latency_p99_ms", p99)
	res.note("latency_p99_ms", "p%.4g of %d read requests in the %v window with recording off", reported, len(plain.reads), dur)
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	res.set("rss_peak_mb", rss)
	if w.live {
		vis := sorted(allIn(plain.visible, time.Millisecond))
		res.set("write_visible_p50_ms", quantile(vis, 0.5))
		res.set("write_visible_p90_ms", quantile(vis, 0.9))
		res.note("write_visible_p50_ms", "%d write batches", len(vis))
		res.set("server.write_ack_p50_us", median(allIn(plain.ack, time.Microsecond)))
		res.set("client.write_late_p50_ms", median(allIn(plain.late, time.Millisecond)))
		res.set("epoch.ops_per_apply", ratio(delta("coskq_epoch_mutations_total"), delta("coskq_epoch_applies_total")))
		res.set("epoch.backlog_rejects", delta("coskq_epoch_backlog_rejects_total"))
	}

	return res, rec, nil
}

// ladder holds what the in-process rungs share.
type ladder struct {
	res         *result
	rec         *recorder
	p           *prepared
	ip          *inProcess
	reqs        []request
	handlerSpan []int

	queries  []ladderQuery // every query of reqs, flattened
	solveUS  []float64     // per query, serving engine at default parallelism
	serialUS []float64     // per query, Parallelism=1
}

type ladderQuery struct {
	req  int // 1-based request id
	q    core.Query
	wire query
	cost core.CostKind
	meth core.Method
	opt  float64 // the serial engine's answer cost
}

// solves runs the core rungs per query: the serving engine's solve
// (default parallelism), the serial solve whose counters repeat exactly,
// and the solve with a trace in its context as the server's slow-log
// path runs it.
func (l *ladder) solves(serving *core.Engine) error {
	ds := l.p.ds
	for i := range l.reqs {
		r := &l.reqs[i]
		for j, q := range r.coreQueries(ds) {
			l.queries = append(l.queries, ladderQuery{req: i + 1, q: q, wire: r.queries[j], cost: costKind(r.cost), meth: methodKind(r.method)})
		}
	}
	serial := *serving
	serial.Parallelism = 1
	serial.Metrics = nil
	serial.NNCache = nil
	bg := context.Background()
	single := l.p.w.batch == 0 && l.p.w.shards <= 1 // the handler blocks on exactly this solve

	l.solveUS = make([]float64, len(l.queries))
	tracedUS := make([]float64, len(l.queries))
	var solveErr error
	for i, lq := range l.queries {
		plain := func() {
			parent := 0
			if single {
				parent = l.handlerSpan[lq.req-1]
			}
			_, l.solveUS[i] = timed(l.rec, "core.solve", parent, lq.req, func() {
				_, err := serving.SolveCtx(bg, lq.q, lq.cost, lq.meth)
				solveErr = errors.Join(solveErr, err)
			})
		}
		traced := func() {
			_, tracedUS[i] = timed(l.rec, "core.solve_traced", 0, lq.req, func() {
				tr := trace.New("query")
				ctx := trace.ContextWithSpanContext(trace.NewContext(bg, tr), trace.NewSpanContext())
				_, err := serving.SolveCtx(ctx, lq.q, lq.cost, lq.meth)
				solveErr = errors.Join(solveErr, err)
				tr.Finish()
				tr.Export()
			})
		}
		// The second solve of a pair finds the caches warm, so the pair
		// alternates which goes first.
		if i%2 == 0 {
			plain()
			traced()
		} else {
			traced()
			plain()
		}
	}

	l.serialUS = make([]float64, len(l.queries))
	var owners, cands, nodes, sets, seed, search float64
	before := mallocs()
	for i := range l.queries {
		lq := &l.queries[i]
		_, l.serialUS[i] = timed(l.rec, "core.solve_serial", 0, lq.req, func() {
			r, err := serial.SolveCtx(bg, lq.q, lq.cost, lq.meth)
			solveErr = errors.Join(solveErr, err)
			lq.opt = r.Cost
			owners += float64(r.Stats.OwnersTried)
			cands += float64(r.Stats.CandidatesSeen)
			nodes += float64(r.Stats.NodesExpanded)
			sets += float64(r.Stats.SetsEvaluated)
			seed += in(r.Stats.Phases.Seed, time.Microsecond)
			search += in(r.Stats.Phases.Search, time.Microsecond)
		})
	}
	l.res.set("core.solve_allocs", float64(mallocs()-before)/float64(len(l.queries)))
	l.res.note("core.solve_allocs", "per serial solve")
	if solveErr != nil {
		return fmt.Errorf("in-process solve: %w", solveErr)
	}

	n := float64(len(l.queries))
	p99, reported := tailPercentile(sorted(l.solveUS), 99)
	res := l.res
	res.set("core.solve_us", median(l.solveUS))
	res.note("core.solve_us", "%d queries", len(l.queries))
	res.set("core.solve_p99_us", p99)
	res.note("core.solve_p99_us", "p%.4g", reported)
	res.set("core.solve_serial_us", median(l.serialUS))
	res.set("core.parallel_speedup", ratio(median(l.serialUS), median(l.solveUS)))
	res.set("core.seed_us", seed/n)
	res.set("core.search_us", search/n)
	res.set("core.owners_tried", owners/n)
	res.set("core.candidates_seen", cands/n)
	res.set("core.nodes_expanded", nodes/n)
	res.set("core.sets_evaluated", sets/n)
	res.set("trace.solve_overhead_ratio", 1+ratio(median(pairedDiff(tracedUS, l.solveUS)), median(l.solveUS)))
	return nil
}

// routes runs every query through the in-process router (the call the
// scatter-gather handler blocks on) and reads the routing decisions off
// its public return value.
func (l *ladder) routes() error {
	rt := l.ip.router
	routeUS := make([]float64, len(l.queries))
	var nnUS, collectUS, pool, pruned []float64
	for i, lq := range l.queries {
		start := time.Now()
		ans, err := rt.RouteWords(context.Background(), lq.q.Loc, lq.wire.Kw, lq.cost, lq.meth)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("in-process route: %w", err)
		}
		id := l.rec.add("shard.route", start, end, l.handlerSpan[lq.req-1], lq.req)
		routeUS[i] = in(end.Sub(start), time.Microsecond)
		// A phase lasts as long as its slowest shard call.
		slowest := map[string]float64{}
		for _, c := range ans.Info.Calls {
			slowest[c.Phase] = max(slowest[c.Phase], c.ElapsedMs*1e3)
		}
		nnUS = append(nnUS, slowest["nn"])
		collectUS = append(collectUS, slowest["collect"])
		nnEnd := start.Add(time.Duration(slowest["nn"] * 1e3))
		l.rec.add("shard.nn", start, nnEnd, id, lq.req)
		l.rec.add("shard.collect", nnEnd, nnEnd.Add(time.Duration(slowest["collect"]*1e3)), id, lq.req)
		pool = append(pool, float64(ans.Info.PoolSize))
		pruned = append(pruned, ratio(float64(len(ans.Info.KeywordPruned)+len(ans.Info.MBRPruned)), float64(ans.Info.Shards)))
	}
	res := l.res
	res.set("shard.route_us", median(routeUS))
	res.set("shard.route_over_solve", ratio(median(routeUS), median(l.solveUS)))
	res.note("shard.route_over_solve", "router ÷ single engine on the same queries")
	res.set("shard.nn_us", median(nnUS))
	res.set("shard.collect_us", median(collectUS))
	res.set("shard.pool_objects", mean(pool))
	res.set("shard.pruned_share", mean(pruned))
	part, _ := shard.PartitionerByName(l.p.w.partition)
	res.set("shard.partition_ms", medianBuild(l.rec, "shard.partition", func() {
		part.Partition(l.p.ds, l.p.w.shards)
	}))
	return nil
}

// batches runs each replayed batch three ways: as the handler does
// (default workers and parallelism, the child span of the handler),
// grouped on one worker with the NN cache, and — from solves — one
// query at a time, so the grouped/independent delta is shared work, not
// concurrency (the definition BENCH_batch.json used).
func (l *ladder) batches(serving *core.Engine) {
	grouped := *serving
	grouped.Parallelism = 1
	grouped.Metrics = core.NewEngineMetrics(nil)
	grouped.EnableNNCache(l.p.w.nnCache)
	reg := grouped.Metrics.Registry()

	var groupedUS, independentUS []float64
	at := 0
	for i := range l.reqs {
		r := &l.reqs[i]
		qs := r.coreQueries(l.p.ds)
		cost, meth := costKind(r.cost), methodKind(r.method)
		timed(l.rec, "core.solve_batch", l.handlerSpan[i], i+1, func() {
			serving.SolveBatchCtx(context.Background(), qs, cost, meth, 0)
		})
		_, us := timed(l.rec, "core.solve_batch_grouped", 0, i+1, func() {
			grouped.SolveBatch(qs, cost, meth, 1)
		})
		groupedUS = append(groupedUS, us/float64(len(qs)))
		independentUS = append(independentUS, mean(l.serialUS[at:at+len(qs)]))
		at += len(qs)
	}
	batches := float64(len(l.reqs))
	queries := float64(len(l.queries))
	res := l.res
	res.set("core.batch_grouped_us_per_query", median(groupedUS))
	res.set("core.batch_independent_us_per_query", median(independentUS))
	res.set("core.batch_group_speedup", ratio(median(independentUS), median(groupedUS)))
	res.set("core.batch_clusters_per_batch", float64(reg.Counter("coskq_batch_clusters_total").Value())/batches)
	res.set("core.batch_warm_start_ratio", float64(grouped.Metrics.BatchWarmStarts())/queries)
}

// epochs measures the live store in-process: the read path's pin, and
// one 32-op write batch from enqueue to visible.
func (l *ladder) epochs() error {
	st := l.ip.store
	const pins = 1 << 20
	t0 := time.Now()
	for i := 0; i < pins; i++ {
		g := st.Pin()
		g.Unpin()
	}
	l.res.set("epoch.pin_unpin_ns", float64(time.Since(t0).Nanoseconds())/pins)

	churn := newChurn(l.p.seed, l.p.ds.Len(), l.p.ds.Vocab.Len())
	applyMS := make([]float64, 10)
	for i := range applyMS {
		batch := nextChurn(churn)
		ops := make([]epoch.Op, len(batch))
		for j, op := range batch {
			ops[j] = epoch.Op{Kind: epoch.OpKind(op.Kind), Key: op.Key, HasKey: true, Loc: op.Loc, Words: op.Words}
		}
		var err error
		_, us := timed(l.rec, "epoch.apply", 0, 0, func() {
			if _, err = st.ApplyBatch(ops); err == nil {
				err = st.WaitIdle(context.Background())
			}
		})
		if err != nil {
			return fmt.Errorf("in-process apply: %w", err)
		}
		applyMS[i] = us / 1e3
	}
	l.res.set("epoch.apply_ms", median(applyMS))
	l.res.note("epoch.apply_ms", "ApplyBatch of %d ops + WaitIdle, %d repetitions", churnOps, len(applyMS))
	return nil
}

// primitives times the IR-tree calls a solve is made of, at each
// query's own location and keywords.
func (l *ladder) primitives() {
	tree := l.p.eng.Tree
	var nnUS, nn2US, nextUS, objs []float64
	for _, lq := range l.queries {
		_, us := timed(l.rec, "irtree.nn", 0, lq.req, func() {
			for _, kw := range lq.q.Keywords {
				tree.NN(lq.q.Loc, kw)
			}
		})
		nnUS = append(nnUS, us/float64(len(lq.q.Keywords)))
		_, us = timed(l.rec, "irtree.nn2", 0, lq.req, func() {
			for _, kw := range lq.q.Keywords {
				tree.NN2(lq.q.Loc, kw)
			}
		})
		nn2US = append(nn2US, us/float64(len(lq.q.Keywords)))
		// Relevant objects out to the answer's cost: no object farther
		// than that can be in an optimal set.
		n := 0
		_, us = timed(l.rec, "irtree.relevant", 0, lq.req, func() {
			it := tree.NewRelevantNNIterator(lq.q.Loc, kwds.NewQueryIndex(lq.q.Keywords))
			it.Limit(lq.opt)
			for _, _, ok := it.Next(); ok; _, _, ok = it.Next() {
				n++
			}
		})
		nextUS = append(nextUS, us/float64(n+1))
		objs = append(objs, float64(n))
	}
	res := l.res
	res.set("irtree.nn_us", median(nnUS))
	res.set("irtree.nn2_us", median(nn2US))
	res.set("irtree.relevant_next_us", median(nextUS))
	res.set("irtree.relevant_objs_per_query", mean(objs))
}

// builds times what set-up and every live generation pay: loading the
// dataset and building each index over it.
func (l *ladder) builds() {
	ds := l.p.ds
	res := l.res
	res.set("dataset.load_ms", medianBuild(l.rec, "dataset.load", func() { dataset.Load(l.p.gob) }))
	res.set("irtree.build_ms", medianBuild(l.rec, "irtree.build", func() { irtree.Build(ds, 0) }))
	res.set("invindex.build_ms", medianBuild(l.rec, "invindex.build", func() { invindex.Build(ds) }))
	entries := make([]rtree.Entry, ds.Len())
	res.set("rtree.bulk_load_ms", medianBuild(l.rec, "rtree.bulk_load", func() {
		for i := range ds.Objects {
			entries[i] = rtree.Entry{P: ds.Objects[i].Loc, ID: uint32(ds.Objects[i].ID)}
		}
		rtree.BulkLoad(entries, 0)
	}))
	st := l.p.eng.Tree.Stats()
	res.set("irtree.nodes", float64(st.Nodes))
	res.set("irtree.height", float64(st.Height))
}

// micro times the three leaf operations everything above is made of,
// on the workload's own objects and queries: the median of microReps
// passes of microOps operations each.
func (l *ladder) micro() {
	const microReps, microOps = 5, 1 << 19
	ds := l.p.ds
	perOp := func(pass func()) float64 {
		ns := make([]float64, microReps)
		for i := range ns {
			t0 := time.Now()
			pass()
			ns[i] = float64(time.Since(t0).Nanoseconds()) / microOps
		}
		return median(ns)
	}

	qis := make([]*kwds.QueryIndex, len(l.queries))
	for i, lq := range l.queries {
		qis[i] = kwds.NewQueryIndex(lq.q.Keywords)
	}
	var acc kwds.Mask
	l.res.set("kwds.mask_of_ns", perOp(func() {
		for i := 0; i < microOps; i++ {
			acc |= qis[i%len(qis)].MaskOf(ds.Objects[i%ds.Len()].Keywords)
		}
	}))

	q := l.queries[0].q.Loc
	d := 0.0
	l.res.set("geo.dist_ns", perOp(func() {
		for i := 0; i < microOps; i++ {
			d += q.Dist(ds.Objects[i%ds.Len()].Loc)
		}
	}))

	rng := rand.New(rand.NewSource(l.p.seed))
	pri := make([]float64, 64)
	for i := range pri {
		pri[i] = rng.Float64()
	}
	pq := pqueue.New[geo.Point](len(pri))
	l.res.set("pqueue.push_pop_ns", perOp(func() {
		for i := 0; i < microOps/len(pri); i++ {
			for _, p := range pri {
				pq.Push(q, p)
			}
			for !pq.Empty() {
				_, p := pq.Pop()
				d += p
			}
		}
	}))
	sink += d + float64(acc)
}
