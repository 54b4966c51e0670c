package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/metrics"
	"coskq/internal/trace"
)

// ShardFailure records one failed shard call of a routed query.
type ShardFailure struct {
	Shard int
	Phase string // "meta", "nn", "collect", "gen"
	Err   error
}

// genMismatch is the error recorded when one shard's NN and Collect
// answers came from different index generations — a torn scatter. The
// router retries the whole route (bounded); a mismatch that survives
// the retries is a shard failure with phase "gen".
type genMismatch struct {
	NNGen, CollectGen uint64
}

func (e *genMismatch) Error() string {
	return fmt.Sprintf("generation changed mid-scatter: nn saw gen %d, collect saw gen %d", e.NNGen, e.CollectGen)
}

// ShardError is the error a routed query returns when shard failures
// prevent an answer (always under core.DegradeFail; under the lenient
// policies only when the surviving shards cannot cover the query).
type ShardError struct {
	Name  string
	Shard int
	Phase string
	Err   error
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d (%s) failed during %s: %v", e.Shard, e.Name, e.Phase, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// RouteInfo describes how one routed query fanned out; the property
// tests assert the prune decisions against exhaustive re-solves.
type RouteInfo struct {
	Shards        int
	KeywordPruned []int // shards skipped by the keyword summary
	MBRPruned     []int // shards skipped by MinDist(q, MBR) > Radius
	Failed        []ShardFailure
	SeedCost      float64 // cost U of the merged nearest-neighbor set N(q)
	Radius        float64 // gather radius (= SeedCost for every cost kind)
	PoolSize      int     // objects the pool solve ran over
	// GenRetries counts full-route retries forced by a torn scatter (a
	// shard whose NN and Collect generations differed).
	GenRetries int
	// Calls is the per-shard RPC breakdown (both scatter phases, shard
	// order within each phase) — the slow-query log records it so a slow
	// distributed query answers "which shard" without reading the trace.
	Calls []trace.ShardCall
}

// Answer is the full outcome of a routed query: the facade Result (its
// Set holds global object ids, exact for in-process backends), the
// resolved answer members, and the routing decisions.
type Answer struct {
	Result  core.Result
	Members []Candidate
	Info    RouteInfo
}

// Metrics aggregates scatter-gather counters into a metrics.Registry.
// All methods are nil-receiver safe, so an unmetered router pays one
// branch per event.
type Metrics struct {
	reg           *metrics.Registry
	queries       *metrics.Counter
	degraded      *metrics.Counter
	prunedKeyword *metrics.Counter
	prunedMBR     *metrics.Counter
	genRetries    *metrics.Counter
	poolSize      *metrics.Histogram
}

// NewMetrics registers the router metric family in reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		reg:           reg,
		queries:       reg.Counter("coskq_shard_queries_total"),
		degraded:      reg.Counter("coskq_shard_degraded_total"),
		prunedKeyword: reg.Counter(`coskq_shard_pruned_total{reason="keyword"}`),
		prunedMBR:     reg.Counter(`coskq_shard_pruned_total{reason="mbr"}`),
		genRetries:    reg.Counter("coskq_shard_gen_retries_total"),
		poolSize:      reg.Histogram("coskq_shard_pool_objects", []float64{1, 4, 16, 64, 256, 1024, 4096}),
	}
}

func (m *Metrics) genRetry() {
	if m != nil {
		m.genRetries.Inc()
	}
}

func (m *Metrics) query() {
	if m != nil {
		m.queries.Inc()
	}
}

func (m *Metrics) degrade() {
	if m != nil {
		m.degraded.Inc()
	}
}

func (m *Metrics) pruned(keyword, mbr int) {
	if m != nil {
		m.prunedKeyword.Add(uint64(keyword))
		m.prunedMBR.Add(uint64(mbr))
	}
}

func (m *Metrics) pool(size int) {
	if m != nil {
		m.poolSize.Observe(float64(size))
	}
}

// rpcBuckets spans sub-millisecond in-process calls through multi-second
// degraded remote calls.
var rpcBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// phaseSeries is the per-(phase, shard) series of one kind of shard
// call. A routed query makes 2 calls per surviving shard and touches up
// to three series per call, so the handles are resolved once (Router.Init)
// instead of formatting a name and taking the registry lock each time.
// The nil receiver is the unmetered router.
type phaseSeries struct {
	calls, rpcErrors *metrics.Counter
	seconds          *metrics.Histogram
}

// shardSeries holds one shard's series for the two scatter phases.
type shardSeries struct {
	nn, collect phaseSeries
}

func (m *Metrics) phaseSeries(phase, name string) phaseSeries {
	return phaseSeries{
		calls:     m.reg.Counter(fmt.Sprintf("coskq_shard_calls_total{phase=%q,shard=%q}", phase, name)),
		rpcErrors: m.reg.Counter(fmt.Sprintf("coskq_shard_rpc_errors_total{phase=%q,shard=%q}", phase, name)),
		seconds:   m.reg.Histogram(fmt.Sprintf("coskq_shard_rpc_seconds{phase=%q,shard=%q}", phase, name), rpcBuckets),
	}
}

func (p *phaseSeries) call() {
	if p != nil {
		p.calls.Inc()
	}
}

func (p *phaseSeries) rpc(seconds float64, failed bool) {
	if p == nil {
		return
	}
	p.seconds.Observe(seconds)
	if failed {
		p.rpcErrors.Inc()
	}
}

func (m *Metrics) fragmentDrops(name string, n int) {
	if m != nil && n > 0 {
		m.reg.Counter(fmt.Sprintf("coskq_shard_fragment_drops_total{shard=%q}", name)).Add(uint64(n))
	}
}

// Router answers CoSKQ queries over a set of shard backends with
// distance-bounded scatter-gather (see the package comment for the
// correctness argument). Configure the public fields before serving;
// a Router is then safe for concurrent queries.
type Router struct {
	Backends []Backend
	// Vocab, when set, lets Solve/SolveCtx accept core.Query keyword
	// sets interned in it (NewLocalRouter wires the dataset vocabulary).
	// RouteWords needs no vocabulary.
	Vocab *kwds.Vocabulary
	// Config is the pool solve's policy (core.Config.SolvePool): its
	// node budget, per-second budget rate, ablation switches and degrade
	// policy. Config.Degrade also selects the failure semantics of the
	// scatter-gather: under DegradeFail (the default) any failed shard
	// fails the query with a ShardError; the lenient policies continue
	// with the surviving shards when they still cover the query, marking
	// the answer Degraded with reason "shard".
	Config core.Config
	// ShardTimeout bounds each individual shard call. Zero means calls
	// are bounded only by ctx.
	ShardTimeout time.Duration
	// Metrics, when non-nil, receives per-query routing counters. Init
	// resolves the per-shard series from it, so set it before the first
	// query.
	Metrics *Metrics

	// fanout bounds concurrent shard calls per query; 0 means all shards
	// at once, 1 forces the deterministic serial schedule (shard order)
	// that the in-package chaos and trace tests replay.
	fanout int

	mu     sync.Mutex
	metas  []Meta
	spans  []callSpans   // per shard ordinal
	series []shardSeries // per shard ordinal; nil when unmetered
}

// callSpans holds one shard's per-call span names, "nn:<shard>" and
// "collect:<shard>", built once by Init.
type callSpans struct {
	nn, collect string
}

// Init fetches every shard's routing summary. Routing calls it lazily;
// call it eagerly to surface unreachable shards at startup. A failed
// Init leaves the router un-initialized so a later call can retry.
func (r *Router) Init(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.metas != nil {
		return nil
	}
	if len(r.Backends) == 0 {
		return errors.New("shard: router has no backends")
	}
	metas := make([]Meta, len(r.Backends))
	for i, b := range r.Backends {
		// Poll between backends so a cancelled startup stops instead of
		// paying one timeout per remaining shard.
		if err := ctx.Err(); err != nil {
			return err
		}
		m, err := b.Meta(ctx)
		if err != nil {
			return &ShardError{Name: b.Name(), Shard: i, Phase: "meta", Err: err}
		}
		metas[i] = m
	}
	r.spans = make([]callSpans, len(r.Backends))
	for i, b := range r.Backends {
		r.spans[i] = callSpans{nn: "nn:" + b.Name(), collect: "collect:" + b.Name()}
	}
	if r.Metrics != nil {
		r.series = make([]shardSeries, len(r.Backends))
		for i, b := range r.Backends {
			r.series[i] = shardSeries{nn: r.Metrics.phaseSeries("nn", b.Name()), collect: r.Metrics.phaseSeries("collect", b.Name())}
		}
	}
	r.metas = metas
	return nil
}

// phaseSeries returns the metric handles of one shard call, nil for an
// unmetered router.
func (r *Router) phaseSeries(ord int, phase string) *phaseSeries {
	if r.series == nil {
		return nil
	}
	if phase == "nn" {
		return &r.series[ord].nn
	}
	return &r.series[ord].collect
}

// spanName returns the name of one shard call's RPC span.
func (r *Router) spanName(ord int, phase string) string {
	if phase == "nn" {
		return r.spans[ord].nn
	}
	return r.spans[ord].collect
}

// Solve mirrors core.Engine.Solve over the shard fleet.
func (r *Router) Solve(q core.Query, cost core.CostKind, method core.Method) (core.Result, error) {
	return r.SolveCtx(context.Background(), q, cost, method)
}

// SolveCtx mirrors core.Engine.SolveCtx: same query, cost and method
// types, same Result contract (for in-process backends, Result.Set is
// global object ids — identical to the single engine's answer for the
// exact methods). Requires Vocab.
func (r *Router) SolveCtx(ctx context.Context, q core.Query, cost core.CostKind, method core.Method) (core.Result, error) {
	if r.Vocab == nil {
		return core.Result{}, errors.New("shard: router has no vocabulary; use RouteWords")
	}
	words := make([]string, len(q.Keywords))
	for i, id := range q.Keywords {
		words[i] = r.Vocab.Word(id)
	}
	ans, err := r.RouteWords(ctx, q.Loc, words, cost, method)
	return ans.Result, err
}

// SolveWords is RouteWords in the form every serving path answers: the
// routed Result, its members, and the per-shard calls — which are
// returned on errors too, so a slow query that failed still shows which
// shard calls it made.
func (r *Router) SolveWords(ctx context.Context, loc geo.Point, words []string, cost core.CostKind, method core.Method) (core.Answer, error) {
	ans, err := r.RouteWords(ctx, loc, words, cost, method)
	out := core.Answer{Result: ans.Result, Calls: ans.Info.Calls}
	if err != nil {
		return out, err
	}
	out.Members = make([]core.Member, len(ans.Members))
	for i, c := range ans.Members {
		out.Members[i] = core.Member{ID: c.GID, Loc: c.Loc, Words: c.Words}
	}
	return out, nil
}

// dedupeWords drops duplicate keywords preserving first-seen order (the
// per-word NN merge indexes hits by position).
func dedupeWords(words []string) []string {
	seen := make(map[string]bool, len(words))
	out := words[:0:0]
	for _, w := range words {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// sameObject reports whether two candidates are one object. In-process
// backends report unique global ids, but HTTP backends report shard-local
// ids, so the shard ordinal is part of the identity.
func sameObject(a, b Candidate) bool { return a.GID == b.GID && a.Shard == b.Shard }

// callShard runs one shard call on the calling goroutine, under the
// fault injection point, the per-shard timeout, and a panic shield. A
// backend honours its context (the Backend contract), so the timeout
// ends the call and no call outlives the scatter that made it. The
// router models the process boundary of a distributed deployment: any
// panic out of a backend — including injected fault.Crash — is
// converted into a failed call, so one crashing shard can degrade a
// query but never tear down the router or produce a torn merge.
func (r *Router) callShard(ctx context.Context, ord int, phase string, fn func(context.Context) error) (err error) {
	ps := r.phaseSeries(ord, phase)
	ps.call()
	if r.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.ShardTimeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("shard panic: %v", p)
			}
		}
		if err != nil {
			err = &ShardError{Name: r.Backends[ord].Name(), Shard: ord, Phase: phase, Err: err}
		}
	}()
	fault.Hit(fault.ShardFanout)
	return fn(ctx)
}

// shardCall is what one scatter worker fills in: the call's outcome, its
// timing and, when the coordinator is tracing, the call's private trace.
type shardCall struct {
	err     error
	start   time.Time
	elapsed time.Duration
	tr      *trace.Trace
}

// scatter fans call out over the given shard ordinals, bounded by
// fanout. fanout 1 runs the calls inline in shard order — the
// deterministic schedule the chaos suite replays. The returned error
// slice is indexed by shard ordinal; the call records follow the shards
// argument's order.
//
// A trace has one writer. When the coordinator is tracing, each call
// records into a private trace in its context: in-process backends
// instrument into it directly, and HTTP backends graft the shard
// server's validated fragment into it. The call also carries a child
// span context, so remote shards see a W3C-style traceparent and tag
// their fragments with the coordinator's trace id. Once every call has
// returned, the calling goroutine grafts each call's trace, in shard
// order, as the per-shard RPC span under the innermost open span — the
// phase span its caller opened.
func (r *Router) scatter(ctx context.Context, phase string, shards []int, call func(context.Context, int) error) ([]error, []trace.ShardCall) {
	tr := trace.FromContext(ctx)
	sc, _ := trace.SpanContextFromContext(ctx)
	calls := make([]shardCall, len(r.Backends))
	one := func(ord int) {
		c := &calls[ord]
		cctx := ctx
		if tr != nil {
			c.tr = trace.New(phase)
			cctx = trace.NewContext(ctx, c.tr)
			if sc.Valid() {
				cctx = trace.ContextWithSpanContext(cctx, sc.Child())
			}
		}
		c.start = time.Now()
		c.err = r.callShard(cctx, ord, phase, func(ctx context.Context) error { return call(ctx, ord) })
		c.elapsed = time.Since(c.start)
	}
	fanout := r.fanout
	if fanout <= 0 || fanout > len(shards) {
		fanout = len(shards)
	}
	if fanout <= 1 {
		for _, ord := range shards {
			one(ord)
		}
	} else {
		sem := make(chan struct{}, fanout)
		var wg sync.WaitGroup
		for _, ord := range shards {
			wg.Add(1)
			go func(ord int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				one(ord)
			}(ord)
		}
		wg.Wait()
	}
	errs := make([]error, len(r.Backends))
	recs := make([]trace.ShardCall, 0, len(shards))
	for _, ord := range shards {
		c := &calls[ord]
		name := r.Backends[ord].Name()
		errs[ord] = c.err
		r.phaseSeries(ord, phase).rpc(c.elapsed.Seconds(), c.err != nil)
		rec := trace.ShardCall{Shard: name, Phase: phase, ElapsedMs: float64(c.elapsed.Nanoseconds()) / 1e6}
		if c.err != nil {
			rec.Err = c.err.Error()
		}
		if c.tr != nil {
			c.tr.Finish()
			// The call trace's root is scaffolding; its children — the
			// backend's own spans, or the remote fragment — belong directly
			// under the per-shard RPC span.
			x := c.tr.Export()
			tr.Graft(r.spanName(ord, phase), c.start, c.elapsed, x)
			r.Metrics.fragmentDrops(name, x.DroppedFragments)
		}
		recs = append(recs, rec)
	}
	return errs, recs
}

// genRouteAttempts bounds how often a route torn by a mid-scatter
// generation swap is retried before the torn shard counts as failed.
const genRouteAttempts = 3

// RouteWords answers one CoSKQ query over the shard fleet. Keywords are
// strings; each shard resolves them against its own vocabulary, so the
// router needs none. See Router for failure semantics.
//
// Live (epoch-backed) shards stamp every data-plane answer with their
// index generation; when a shard's NN and Collect answers disagree the
// scatter is torn — its gather radius was proved against one snapshot
// and its pool gathered from another — so the whole route is retried
// from the NN phase. A mismatch persisting past genRouteAttempts
// demotes the shard to a failure with phase "gen" and the configured
// degrade policy decides, exactly as for a dead shard.
func (r *Router) RouteWords(ctx context.Context, loc geo.Point, words []string, cost core.CostKind, method core.Method) (Answer, error) {
	words = dedupeWords(words)
	if len(words) == 0 {
		return Answer{}, core.ErrNoKeywords
	}
	if len(words) > kwds.MaxQueryKeywords {
		return Answer{}, fmt.Errorf("%w (%d given)", core.ErrTooManyKeywords, len(words))
	}
	if err := r.Init(ctx); err != nil {
		return Answer{}, err
	}
	r.Metrics.query()
	for attempt := 0; ; attempt++ {
		ans, torn, err := r.routeOnce(ctx, loc, words, cost, method, attempt+1 == genRouteAttempts)
		ans.Info.GenRetries = attempt
		if !torn || attempt+1 == genRouteAttempts {
			return ans, err
		}
		// Poll between attempts: a cancelled query must not pay another
		// full scatter.
		if cerr := ctx.Err(); cerr != nil {
			return ans, cerr
		}
		r.Metrics.genRetry()
	}
}

// routeOnce runs one scatter-gather attempt. torn reports that a
// generation mismatch was detected; unless final is set, the caller
// discards the answer and retries.
func (r *Router) routeOnce(ctx context.Context, loc geo.Point, words []string, cost core.CostKind, method core.Method, final bool) (_ Answer, torn bool, _ error) {
	tr := trace.FromContext(ctx)
	sq := ShardQuery{Loc: loc, Words: words}
	info := RouteInfo{Shards: len(r.Backends)}
	gatherStart := time.Now()

	// Phase 1: keyword prune. A clear summary bit proves the word absent
	// from the shard, so skipping it can neither lose answer members nor
	// mask infeasibility.
	kp := tr.Begin("keyword_prune")
	var alive []int
	for i := range r.Backends {
		if r.metas[i].Objects == 0 || !r.metas[i].Summary.MightAny(words) {
			info.KeywordPruned = append(info.KeywordPruned, i)
			continue
		}
		alive = append(alive, i)
	}
	kp.Attr("shards", float64(len(r.Backends)))
	kp.Attr("pruned", float64(len(info.KeywordPruned)))
	kp.End()

	// Phase 2: scatter per-keyword NN probes and merge the global
	// nearest neighbor per word by (distance, shard ordinal) — the
	// deterministic tie order the merge contract promises.
	hits := make([][]NNHit, len(r.Backends))
	nnGens := make([]uint64, len(r.Backends))
	sp := tr.Begin("shard_nn")
	nnErrs, nnCalls := r.scatter(ctx, "nn", alive, func(c context.Context, ord int) error {
		h, err := r.Backends[ord].NN(c, sq)
		if err != nil {
			return err
		}
		if len(h.Hits) != len(words) {
			return fmt.Errorf("shard returned %d NN hits for %d keywords", len(h.Hits), len(words))
		}
		hits[ord] = h.Hits
		nnGens[ord] = h.Gen
		return nil
	})
	sp.Attr("shards", float64(len(alive)))
	sp.End()
	info.Calls = nnCalls

	failed := make([]bool, len(r.Backends))
	for _, ord := range alive {
		if nnErrs[ord] != nil {
			failed[ord] = true
			info.Failed = append(info.Failed, ShardFailure{Shard: ord, Phase: "nn", Err: nnErrs[ord]})
		}
	}

	best := make([]NNHit, len(words))
	bestShard := make([]int, len(words))
	for _, ord := range alive {
		if failed[ord] {
			continue
		}
		for i, h := range hits[ord] {
			if !h.Found {
				continue
			}
			h.Cand.Shard = ord
			if !best[i].Found || h.Dist < best[i].Dist || (h.Dist == best[i].Dist && ord < bestShard[i]) {
				best[i], bestShard[i] = h, ord
			}
		}
	}
	for i := range best {
		if !best[i].Found {
			if len(info.Failed) > 0 {
				// A failed shard may hold the missing keyword; claiming
				// infeasibility would be a lie.
				return Answer{Info: info}, torn, failError(info)
			}
			return Answer{Info: info}, torn, core.ErrInfeasible
		}
	}
	if len(info.Failed) > 0 && r.Config.Degrade == core.DegradeFail {
		return Answer{Info: info}, torn, failError(info)
	}

	// Phase 3: the gather radius. U = cost(N(q)) upper-bounds the
	// optimal cost, and every member of an optimal set lies within the
	// optimal cost of q (DESIGN.md §12), so the disk C(q, U) contains
	// every possible answer member for all five cost kinds.
	seeds := make([]Candidate, 0, len(words))
	seedLocs := make([]geo.Point, 0, len(words))
	for _, h := range best {
		if !slices.ContainsFunc(seeds, func(c Candidate) bool { return sameObject(c, h.Cand) }) {
			seeds = append(seeds, h.Cand)
			seedLocs = append(seedLocs, h.Cand.Loc)
		}
	}
	info.SeedCost = core.EvalPoints(cost, loc, seedLocs)
	info.Radius = info.SeedCost

	// Phase 4: MBR prune — strict inequality keeps boundary ties.
	mp := tr.Begin("mbr_prune")
	var keep []int
	for _, ord := range alive {
		if failed[ord] {
			continue
		}
		if r.metas[ord].MBR.MinDist(loc) > info.Radius {
			info.MBRPruned = append(info.MBRPruned, ord)
			continue
		}
		keep = append(keep, ord)
	}
	mp.Attr("radius", info.Radius)
	mp.Attr("pruned", float64(len(info.MBRPruned)))
	mp.End()
	r.Metrics.pruned(len(info.KeywordPruned), len(info.MBRPruned))

	// Phase 5: gather every relevant object inside the disk from the
	// surviving shards.
	collected := make([][]Candidate, len(r.Backends))
	sp = tr.Begin("shard_collect")
	colErrs, colCalls := r.scatter(ctx, "collect", keep, func(c context.Context, ord int) error {
		res, err := r.Backends[ord].Collect(c, sq, info.Radius)
		if err != nil {
			return err
		}
		if res.Gen != nnGens[ord] {
			return &genMismatch{NNGen: nnGens[ord], CollectGen: res.Gen}
		}
		collected[ord] = res.Objects
		return nil
	})
	sp.Attr("shards", float64(len(keep)))
	sp.Attr("radius", info.Radius)
	sp.End()
	info.Calls = append(info.Calls, colCalls...)

	for _, ord := range keep {
		if colErrs[ord] != nil {
			failed[ord] = true
			phase := "collect"
			var gm *genMismatch
			if errors.As(colErrs[ord], &gm) {
				phase = "gen"
				torn = true
				if se, ok := colErrs[ord].(*ShardError); ok {
					se.Phase = "gen"
				}
			}
			info.Failed = append(info.Failed, ShardFailure{Shard: ord, Phase: phase, Err: colErrs[ord]})
		}
	}
	if torn && !final {
		// The answer would merge data from two generations of one shard;
		// discard it and let RouteWords re-scatter from the NN phase.
		return Answer{Info: info}, true, nil
	}
	if len(info.Failed) > 0 && r.Config.Degrade == core.DegradeFail {
		return Answer{Info: info}, torn, failError(info)
	}

	// Phase 6: the pool. The NN seeds (kept even when their shard later
	// failed collect — they are fetched data and preserve coverage) and
	// the collect results are handed to core.NewPool, which sorts them
	// once by (d(q), GID, shard ordinal), so the pool — and therefore the
	// canonical answer — is independent of arrival order. A seed its own
	// shard collected again has its copy's location, so its distance, and
	// lands beside it; a backend reports one mask per object, so the
	// copies are identical and either one stays. A candidate's Ref is its
	// position in parts, read in order.
	type part struct {
		shard int // stamped on every candidate; -1 keeps each one's own
		cands []Candidate
	}
	parts := append(make([]part, 0, len(keep)+1), part{-1, seeds})
	n := len(seeds)
	for _, ord := range keep {
		if !failed[ord] {
			parts = append(parts, part{ord, collected[ord]})
			n += len(collected[ord])
		}
	}
	objs := make([]core.PoolObject, 0, n)
	var covered kwds.Mask
	for _, pt := range parts {
		for _, c := range pt.cands {
			if pt.shard >= 0 {
				c.Shard = pt.shard
			}
			covered |= c.Mask
			objs = append(objs, core.PoolObject{Loc: c.Loc, Mask: c.Mask, Key: uint64(c.GID)<<32 | uint64(c.Shard), Ref: int32(len(objs))})
		}
	}
	if full := ^kwds.Mask(0) >> uint(kwds.MaxQueryKeywords-len(words)); covered != full {
		// Unreachable with honest backends: every word is covered by a
		// pooled NN seed.
		return Answer{Info: info}, torn, fmt.Errorf("shard: keywords %b of %b lost during gather", full&^covered, full)
	}
	pool := core.NewPool(loc, len(words), objs)
	info.PoolSize = pool.Len()
	r.Metrics.pool(pool.Len())
	// member resolves a Ref back to its candidate.
	member := func(ref int32) Candidate {
		for _, pt := range parts {
			if int(ref) < len(pt.cands) {
				c := pt.cands[ref]
				if pt.shard >= 0 {
					c.Shard = pt.shard
				}
				return c
			}
			ref -= int32(len(pt.cands))
		}
		panic("shard: pool ref out of range")
	}
	prepared := time.Since(gatherStart)

	// Phase 7: solve the pool in place. It contains an optimal set, so
	// exact methods return the global optimum; approximation methods keep
	// their ratio (the pool is a feasible dataset containing N(q)). The
	// gather and the pool's preparation are the solve's Materialize phase.
	res, err := r.Config.SolvePool(ctx, pool, cost, method)
	if err != nil {
		return Answer{Info: info}, torn, err
	}
	res.Stats.Phases.Materialize += prepared

	// Map the pool's local ids back to members, in (GID, shard) order.
	// Only these ≤ |q.ψ| members get their keyword strings materialized.
	members := make([]Candidate, len(res.Set))
	for i, lid := range res.Set {
		members[i] = member(pool.Ref(lid))
		if h, ok := r.Backends[members[i].Shard].(Hydrator); ok && members[i].Words == nil {
			h.Hydrate(&members[i])
		}
	}
	slices.SortFunc(members, func(a, b Candidate) int {
		return cmp.Or(cmp.Compare(a.GID, b.GID), cmp.Compare(a.Shard, b.Shard))
	})
	gids := make([]dataset.ObjectID, len(members))
	for i, m := range members {
		gids[i] = m.GID
	}
	res.Set = gids
	if len(info.Failed) > 0 {
		res.Degraded = true
		if res.Stats.DegradeReason == "" {
			res.Stats.DegradeReason = core.DegradeReasonShard
		}
	}
	if res.Degraded {
		r.Metrics.degrade()
	}
	res.Stats.Elapsed = time.Since(gatherStart)
	return Answer{Result: res, Members: members, Info: info}, torn, nil
}

// failError returns the error a failed routing surfaces: the failure of
// the lowest shard ordinal, so the error is deterministic for a given
// failure set. Every failure comes from callShard, so its Err is already
// the *ShardError.
func failError(info RouteInfo) error {
	f := info.Failed[0]
	for _, g := range info.Failed[1:] {
		if g.Shard < f.Shard {
			f = g
		}
	}
	return f.Err
}
