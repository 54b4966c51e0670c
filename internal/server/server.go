// Package server implements the HTTP/JSON query surface of coskq-server:
// a thin, stateless handler over one prebuilt Engine. Queries are
// read-only, so the handler serves concurrent requests safely.
//
// The handler stack (outermost first) is request id → panic recovery →
// request logging + HTTP metrics → per-request timeout → route mux,
// with the query-serving routes additionally behind the admission
// controller (bounded in-flight + bounded queue, overload shed with
// 429), serving:
//
//	GET /stats          dataset statistics
//	GET /query          one CoSKQ answer (?explain=1 inlines the trace)
//	GET /topk           the n cheapest irredundant sets (?explain=1 too)
//	GET /healthz        liveness probe
//	GET /metrics        text exposition of the query/effort/latency metrics
//	GET /debug/slowlog  the retained slowest query traces
package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/epoch"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/kwds"
	"coskq/internal/metrics"
	"coskq/internal/shard"
	"coskq/internal/trace"
)

// DefaultSlowLogSize is the slow-query log capacity used when
// Options.SlowLog is zero.
const DefaultSlowLogSize = 16

// Options configures the robustness layer around the query handlers.
// The zero value disables the timeout and logging, uses a fresh
// metrics registry, and retains DefaultSlowLogSize slow queries.
type Options struct {
	// Timeout bounds each request's total handling time. At the deadline
	// the request context is cancelled — aborting an in-flight search via
	// the engine's cancellation polls — and the client receives 504 with
	// a JSON body. Zero disables the middleware (handlers still honour
	// cancellation of the client connection's context).
	Timeout time.Duration
	// Logger receives one structured record per request (request id,
	// method, URI, status, duration) and panic reports. Nil disables
	// logging.
	Logger *slog.Logger
	// Registry collects HTTP-layer metrics and backs GET /metrics. Nil
	// means: reuse the engine sink's registry when the engine has one,
	// else create a fresh registry. When the engine has no metrics sink,
	// one recording into this registry is attached, so engine and HTTP
	// metrics share a single exposition.
	Registry *metrics.Registry
	// SlowLog sets the capacity of the slow-query log served at
	// GET /debug/slowlog. Zero means DefaultSlowLogSize; negative
	// disables the log (and the per-query tracing feeding it).
	SlowLog int
	// MaxInFlight bounds the number of concurrently solving /query and
	// /topk requests; excess requests wait in a bounded queue and beyond
	// that are shed with 429 + Retry-After. Zero disables admission
	// control. Probe and introspection routes are never gated.
	MaxInFlight int
	// MaxQueue is the number of requests allowed to wait for an
	// execution slot when MaxInFlight is saturated. Zero means no queue:
	// a saturated server sheds immediately.
	MaxQueue int
	// QueueTimeout bounds how long a queued request waits for a slot
	// before being shed. Zero means the wait is bounded only by the
	// request's own deadline.
	QueueTimeout time.Duration
	// Degrade is the anytime-answer policy applied to request solves
	// (see core.DegradePolicy). With DegradeIncumbent or
	// DegradeFallbackAppro, a budget- or deadline-tripped search returns
	// its best-so-far feasible set — marked by the X-Coskq-Degraded
	// header and the response's degraded fields — instead of an error.
	Degrade core.DegradePolicy
	// NodeBudgetPerSecond derives a per-request node budget from the
	// request deadline: budget = rate × seconds remaining at solve
	// start. It converts the wall-clock deadline into a deterministic
	// effort bound that trips before the deadline does, so Degrade can
	// return an anytime answer instead of the timeout's 504. Zero
	// disables derivation (any engine-level NodeBudget still applies).
	NodeBudgetPerSecond float64
}

// New returns the handler stack over eng with default options.
func New(eng *core.Engine) http.Handler { return NewWith(eng, Options{}) }

// NewWith returns the handler stack over eng. When eng.Metrics is nil it
// is set here (call before the engine starts serving queries elsewhere).
func NewWith(eng *core.Engine, opts Options) http.Handler {
	return newEngineServer(eng, nil, opts)
}

// NewLive returns the handler stack over a live epoch store: the same
// read surface as NewWith — with every read request pinning one
// generation end-to-end, from keyword resolution through answer
// rendering — plus the mutation surface (POST /objects and the
// streaming POST /objects/stream). The caller owns the store's
// lifecycle (Close it after the listener stops).
func NewLive(st *epoch.Store, opts Options) http.Handler {
	g := st.Pin()
	defer g.Unpin()
	return newEngineServer(g.Eng, st, opts)
}

func newEngineServer(eng *core.Engine, st *epoch.Store, opts Options) http.Handler {
	reg := opts.Registry
	if reg == nil {
		if eng.Metrics != nil {
			reg = eng.Metrics.Registry()
		} else {
			reg = metrics.NewRegistry()
		}
	}
	if eng.Metrics == nil {
		eng.Metrics = core.NewEngineMetrics(reg)
	}
	s := newBase(opts, reg)
	s.eng = eng
	s.store = st
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", s.pinned(s.handleStats))
	mux.Handle("GET /query", s.adm.middleware(s.pinned(s.handleQuery)))
	mux.Handle("GET /topk", s.adm.middleware(s.pinned(s.handleTopK)))
	mux.Handle("POST /batch", s.adm.middleware(s.pinned(s.handleBatch)))
	mux.HandleFunc("GET /healthz", s.pinned(s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/slowlog", s.handleSlowLog)
	// Every server is also a shard: the scatter-gather data plane is
	// always mounted so any dataset server can join a fleet (shard.go).
	mux.HandleFunc("GET /shard/meta", s.pinned(s.handleShardMeta))
	mux.Handle("GET /shard/nn", s.adm.middleware(s.pinned(s.handleShardNN)))
	mux.Handle("GET /shard/collect", s.adm.middleware(s.pinned(s.handleShardCollect)))
	if st != nil {
		// The write path is not behind the admission controller: a
		// mutation batch only validates and enqueues, and its own
		// overload control is the store's bounded backlog (429).
		mux.HandleFunc("POST /objects", s.handleObjects)
		mux.HandleFunc("POST /objects/stream", s.handleObjectsStream)
	}
	return s.wrap(mux, opts.Timeout)
}

// newBase builds the shared middleware/observability state every
// handler stack variant (engine server, scatter-gather coordinator)
// hangs off.
func newBase(opts Options, reg *metrics.Registry) *server {
	s := &server{
		reg:         reg,
		log:         opts.Logger,
		httpLatency: reg.Histogram("coskq_http_request_seconds", httpLatencyBuckets),
		degrade:     opts.Degrade,
		budgetRate:  opts.NodeBudgetPerSecond,
	}
	if opts.MaxInFlight > 0 {
		s.adm = newAdmission(reg, opts.MaxInFlight, opts.MaxQueue, opts.QueueTimeout, time.Second)
	}
	if opts.SlowLog >= 0 {
		size := opts.SlowLog
		if size == 0 {
			size = DefaultSlowLogSize
		}
		s.slow = trace.NewSlowLog(size)
	}
	// idToken makes request ids unique across server instances; id
	// generation itself is one atomic increment.
	var tok [4]byte
	if _, err := rand.Read(tok[:]); err == nil {
		s.idToken = hex.EncodeToString(tok[:])
	} else {
		s.idToken = "static"
	}
	return s
}

// wrap applies the outer middleware stack (request id → recover →
// observe → optional timeout) around mux.
func (s *server) wrap(mux http.Handler, timeout time.Duration) http.Handler {
	h := mux
	if timeout > 0 {
		h = timeoutMiddleware(timeout, h)
	}
	h = s.observeMiddleware(h)
	h = s.recoverMiddleware(h)
	h = s.requestIDMiddleware(h)
	return h
}

var httpLatencyBuckets = []float64{
	1e-3, 2.5e-3, 10e-3, 25e-3, 100e-3, 250e-3, 1, 2.5, 10,
}

type server struct {
	eng         *core.Engine
	store       *epoch.Store
	reg         *metrics.Registry
	log         *slog.Logger
	slow        *trace.SlowLog
	httpLatency *metrics.Histogram
	adm         *admission
	degrade     core.DegradePolicy
	budgetRate  float64
	idToken     string
	idCounter   atomic.Uint64

	shardOnce sync.Once
	shardB    *shard.EngineBackend

	// Live shard-backend cache: one wrapped backend per generation, so
	// the data plane doesn't rescan the dataset for its keyword summary
	// on every call (shardMu guards both fields).
	shardMu      sync.Mutex
	shardLive    *shard.EngineBackend
	shardLiveGen uint64
}

// pin is one request's view of the index it serves from: the engine and
// its generation (0 on a static server). It is a value — taking one
// allocates nothing.
type pin struct {
	eng *core.Engine
	gen uint64
}

// pinned adapts a handler that serves from one index. A live server pins
// the store's current generation for the whole call, so keyword
// resolution, solve and answer rendering see one consistent snapshot,
// and unpins it when h returns; a static server hands out its fixed
// engine. Handlers never pin for themselves, so none can leak a pin.
func (s *server) pinned(h func(http.ResponseWriter, *http.Request, pin)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.store == nil {
			h(w, r, pin{eng: s.eng})
			return
		}
		g := s.store.Pin()
		defer g.Unpin()
		h(w, r, pin{eng: g.Eng, gen: g.Gen})
	}
}

// requestEngine returns the engine one request solves on: the pinned
// base engine when no per-request knobs apply, else a shallow clone
// carrying the server's degrade policy and — when the request has a
// deadline and a budget rate is configured — a node budget proportional
// to the time remaining. The clone shares every index and the metrics
// sink; only the scalar knobs differ.
func (s *server) requestEngine(ctx context.Context, base *core.Engine) *core.Engine {
	if s.degrade == core.DegradeFail && s.budgetRate <= 0 {
		return base
	}
	run := *base
	run.Degrade = s.degrade
	if s.budgetRate > 0 {
		if dl, ok := ctx.Deadline(); ok {
			b := int(time.Until(dl).Seconds() * s.budgetRate)
			if b < 1 {
				b = 1
			}
			run.NodeBudget = b
		}
	}
	return &run
}

// requestIDKey keys the request id in the request context.
type requestIDKey struct{}

// requestIDFrom returns the request id assigned by requestIDMiddleware,
// or "" outside the middleware stack.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// requestIDMiddleware assigns each request an id, echoes it in the
// X-Request-Id response header, and carries it in the request context so
// log lines and slow-log entries correlate with responses. A valid
// inbound X-Request-Id is adopted instead of minted — the coordinator's
// id then appears on every shard server's log line of one distributed
// query — and the id is also placed in the trace package's carrier so
// outbound HTTP calls made under this request forward it.
func (s *server) requestIDMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !trace.ValidRequestID(id) {
			id = fmt.Sprintf("%s-%d", s.idToken, s.idCounter.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		ctx = trace.ContextWithRequestID(ctx, id)
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// routeLabel maps a request path onto the bounded label vocabulary used
// by the per-route request counter: unknown paths share one label, so a
// path-scanning client cannot grow the metric set.
func routeLabel(path string) string {
	switch path {
	case "/stats", "/query", "/topk", "/batch", "/healthz", "/metrics", "/debug/slowlog",
		"/shard/meta", "/shard/nn", "/shard/collect", "/objects", "/objects/stream":
		return path
	}
	return "other"
}

// observeMiddleware records the per-request counter/latency metrics and,
// when a logger is configured, one structured record per request.
func (s *server) observeMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.reg.Counter(fmt.Sprintf("coskq_http_requests_total{path=%q,status=\"%d\"}",
			routeLabel(r.URL.Path), status)).Inc()
		s.httpLatency.Observe(elapsed.Seconds())
		if s.log != nil {
			s.log.Info("request",
				"id", requestIDFrom(r.Context()),
				"method", r.Method,
				"uri", r.URL.RequestURI(),
				"status", status,
				"dur", elapsed.Round(time.Microsecond))
		}
	})
}

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// recoverMiddleware converts handler panics into a JSON 500 instead of
// tearing down the connection, preserving http.ErrAbortHandler's
// contract.
func (s *server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			if s.log != nil {
				s.log.Error("panic",
					"id", requestIDFrom(r.Context()),
					"method", r.Method,
					"path", r.URL.Path,
					"panic", fmt.Sprint(p),
					"stack", string(debug.Stack()))
			}
			jsonError(w, http.StatusInternalServerError, "internal server error")
		}()
		next.ServeHTTP(w, r)
	})
}

// timeoutMiddleware runs next with a deadline on the request context.
// The inner handler writes into a buffer that is only flushed when it
// finishes in time; at the deadline the client gets 504 immediately
// while the (context-aware) handler unwinds in the background. Inner
// panics are re-raised on the serving goroutine for recoverMiddleware.
func timeoutMiddleware(d time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		r = r.WithContext(ctx)
		buf := &bufferedResponse{header: make(http.Header)}
		done := make(chan struct{})
		panicked := make(chan any, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					panicked <- p
				}
			}()
			next.ServeHTTP(buf, r)
			close(done)
		}()
		select {
		case p := <-panicked:
			panic(p)
		case <-done:
			buf.copyTo(w)
		case <-ctx.Done():
			// Deadline expiry and client disconnect both land here, but
			// they are different failures: the deadline is the server's
			// 504, a dropped connection is a 503 (written mostly for the
			// access log — the client is gone). Both use the JSON error
			// envelope so every middleware failure parses uniformly.
			if errors.Is(ctx.Err(), context.Canceled) {
				jsonError(w, http.StatusServiceUnavailable, "client disconnected before the response was ready")
				return
			}
			jsonError(w, http.StatusGatewayTimeout, "request exceeded the %v server timeout", d)
		}
	})
}

// bufferedResponse buffers a response so a timed-out handler's late
// writes never interleave with the 504 the client already received. It
// is only ever touched by the handler goroutine until done is closed,
// after which only the serving goroutine reads it.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.body.Write(p)
}

func (b *bufferedResponse) copyTo(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if b.status != 0 {
		w.WriteHeader(b.status)
	}
	w.Write(b.body.Bytes())
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeSolveError maps an engine execution error onto an HTTP status:
// infeasible queries are a semantic 422, exhausted budgets and cancelled
// requests are 503 (the server refused to spend more effort), a deadline
// hit inside the engine is 504, and anything else is the client's fault.
func writeSolveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrInfeasible):
		jsonError(w, http.StatusUnprocessableEntity, "query keywords cannot be covered")
	case errors.Is(err, core.ErrBudgetExceeded):
		jsonError(w, http.StatusServiceUnavailable, "query exceeded the server's search budget")
	case errors.Is(err, context.DeadlineExceeded):
		jsonError(w, http.StatusGatewayTimeout, "query exceeded the server timeout")
	case errors.Is(err, context.Canceled):
		jsonError(w, http.StatusServiceUnavailable, "query cancelled")
	default:
		jsonError(w, http.StatusBadRequest, "%v", err)
	}
}

type statsResponse struct {
	Name        string  `json:"name"`
	Gen         uint64  `json:"gen"`
	Objects     int     `json:"objects"`
	UniqueWords int     `json:"uniqueWords"`
	Words       int     `json:"words"`
	AvgKeywords float64 `json:"avgKeywords"`
}

// handleHealthz is the liveness/readiness probe: the engine is built
// before the listener starts, so reaching this handler means the server
// can answer queries.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request, p pin) {
	body := map[string]any{
		"status":  "ok",
		"dataset": p.eng.DS.Name,
		"objects": p.eng.DS.Len(),
	}
	if s.store != nil {
		body["gen"] = p.gen
		body["backlog"] = s.store.Backlog()
	}
	writeJSON(w, body)
}

// handleMetrics serves the text exposition of every counter and
// histogram in the shared registry (engine + HTTP layer).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request, p pin) {
	st := p.eng.DS.Stats()
	writeJSON(w, statsResponse{
		Name:        p.eng.DS.Name,
		Gen:         p.gen,
		Objects:     st.NumObjects,
		UniqueWords: st.NumUniqueWords,
		Words:       st.NumWords,
		AvgKeywords: st.AvgKeywords,
	})
}

type objectJSON struct {
	ID       uint32   `json:"id"`
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	DistQ    float64  `json:"distToQuery"`
	Keywords []string `json:"keywords"`
}

type queryResponse struct {
	Cost      float64       `json:"cost"`
	CostKind  string        `json:"costKind"`
	Method    string        `json:"method"`
	ElapsedMs float64       `json:"elapsedMs"`
	Objects   []objectJSON  `json:"objects"`
	Degraded  bool          `json:"degraded,omitempty"`
	Reason    string        `json:"degradeReason,omitempty"`
	Trace     *trace.Export `json:"trace,omitempty"`
}

// serveFault passes through the server.handle injection point,
// converting an injected Unwind into the matching typed engine error so
// an armed chaos schedule exercises the real error path. An injected
// Crash propagates to recoverMiddleware like any programming error.
func serveFault() error {
	var err error
	func() {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			u, ok := p.(fault.Unwind)
			if !ok {
				panic(p)
			}
			if u.Kind == fault.KindBudget {
				err = core.ErrBudgetExceeded
			} else {
				err = context.Canceled
			}
		}()
		fault.Hit(fault.ServerHandle)
	}()
	return err
}

// beginTrace decides whether this request is traced — explicitly via
// ?explain=1, or implicitly to feed the slow-query log — and returns the
// (possibly unchanged) context plus the trace.
func (s *server) beginTrace(r *http.Request, root string) (context.Context, *trace.Trace, bool) {
	explain := r.URL.Query().Get("explain") == "1"
	if !explain && s.slow == nil {
		return r.Context(), nil, false
	}
	tr := trace.New(root)
	ctx := trace.NewContext(r.Context(), tr)
	// Mint the distributed trace ids alongside the trace: outbound shard
	// calls made under this context carry a traceparent child of this
	// span context, so remote fragments join one trace. A single-engine
	// solve makes no outbound calls and simply never reads it.
	ctx = trace.ContextWithSpanContext(ctx, trace.NewSpanContext())
	return ctx, tr, explain
}

// finishTrace stamps the trace, offers it to the slow-query log — with
// the per-shard RPC breakdown when the execution was distributed — and
// returns the export for inlining in the response, nil unless the
// request asked for it (explain).
func (s *server) finishTrace(r *http.Request, tr *trace.Trace, explain bool, elapsed time.Duration, err error, shards []trace.ShardCall) *trace.Export {
	if tr == nil {
		return nil
	}
	tr.Finish()
	x := tr.Export()
	if s.slow != nil {
		e := trace.Entry{
			Time:      time.Now(),
			ID:        requestIDFrom(r.Context()),
			Query:     r.URL.RequestURI(),
			ElapsedMs: float64(elapsed.Microseconds()) / 1000,
			Shards:    shards,
			Trace:     x,
		}
		if err != nil {
			e.Err = err.Error()
		}
		s.slow.Observe(e)
	}
	if !explain {
		return nil
	}
	return x
}

// slowLogResponse is the GET /debug/slowlog body.
type slowLogResponse struct {
	Capacity int           `json:"capacity"`
	Entries  []trace.Entry `json:"entries"`
}

// handleSlowLog serves the retained slowest query executions, slowest
// first, each with its full trace.
func (s *server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	if s.slow == nil {
		jsonError(w, http.StatusNotFound, "slow-query log disabled")
		return
	}
	entries := s.slow.Snapshot()
	if entries == nil {
		entries = []trace.Entry{}
	}
	writeJSON(w, slowLogResponse{Capacity: s.slow.Cap(), Entries: entries})
}

// parseLoc extracts the query location. strconv.ParseFloat accepts "NaN"
// and "Inf"; a non-finite coordinate would reach the solver and come back
// as a NaN cost that cannot be JSON-encoded, so it is rejected here.
func parseLoc(q url.Values) (geo.Point, error) {
	var xy [2]float64
	for i, name := range [2]string{"x", "y"} {
		v, err := strconv.ParseFloat(q.Get(name), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return geo.Point{}, errors.New("x and y must be finite numbers")
		}
		xy[i] = v
	}
	return geo.Point{X: xy[0], Y: xy[1]}, nil
}

// parseQuery extracts the common query parameters (location, keywords,
// cost) from the request, resolving keywords against the pinned
// engine's vocabulary so a live server's parse and solve agree on one
// generation.
func (s *server) parseQuery(eng *core.Engine, r *http.Request) (core.Query, core.CostKind, error) {
	q := r.URL.Query()
	loc, err := parseLoc(q)
	if err != nil {
		return core.Query{}, 0, err
	}

	var keywords kwds.Set
	switch words := splitKeywords(q.Get("kw")); {
	case len(words) > 0:
		if keywords, err = resolveKeywords(eng.DS.Vocab, words); err != nil {
			return core.Query{}, 0, err
		}
	case q.Get("k") != "":
		k, err := strconv.Atoi(q.Get("k"))
		if err != nil || k <= 0 {
			return core.Query{}, 0, fmt.Errorf("k must be a positive integer")
		}
		seed := int64(1)
		if sv := q.Get("seed"); sv != "" {
			if parsed, err := strconv.ParseInt(sv, 10, 64); err == nil {
				seed = parsed
			}
		}
		g := datagen.NewQueryGen(eng.DS, eng.Inv, 0, 40, seed)
		_, keywords = g.Next(k)
	default:
		return core.Query{}, 0, fmt.Errorf("provide kw=a,b,c or k=N")
	}

	cost, err := costByName(q.Get("cost"))
	if err != nil {
		return core.Query{}, 0, err
	}
	return core.Query{Loc: loc, Keywords: keywords}, cost, nil
}

// splitKeywords splits a kw=a,b,c parameter into its keyword list
// (keywordList) — the reading that /query, /topk, the coordinator's
// /query and the shard data plane share.
func splitKeywords(kw string) []string {
	return keywordList(strings.Split(kw, ","))
}

// keywordList is the one reading of a query's keyword list, whether it
// came as a kw=a,b,c parameter or as a /batch item's JSON array: entries
// are trimmed and blank ones dropped. It filters parts in place.
func keywordList(parts []string) []string {
	words := parts[:0]
	for _, wrd := range parts {
		if wrd = strings.TrimSpace(wrd); wrd != "" {
			words = append(words, wrd)
		}
	}
	return words
}

// resolveKeywords maps words to their keyword set under vocab, failing
// with every word the vocabulary does not know.
func resolveKeywords(vocab *kwds.Vocabulary, words []string) (kwds.Set, error) {
	var keywords kwds.Set
	var missing []string
	for _, wrd := range words {
		if id, ok := vocab.Lookup(wrd); ok {
			keywords = keywords.Union(kwds.NewSet(id))
		} else {
			missing = append(missing, wrd)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("unknown keywords: %s", strings.Join(missing, ", "))
	}
	return keywords, nil
}

// costByName resolves a cost parameter; empty means MaxSum.
func costByName(s string) (core.CostKind, error) {
	if s == "" {
		return core.MaxSum, nil
	}
	return core.ParseCost(s)
}

// methodByName resolves a method parameter; empty means exact. The
// exhaustive oracle is deliberately not served.
func methodByName(s string) (core.Method, error) {
	if s == "" {
		return core.OwnerExact, nil
	}
	m, err := core.ParseMethod(s)
	if err == nil && m == core.Brute {
		return 0, fmt.Errorf("unknown method %q", s)
	}
	return m, err
}

func (s *server) objectsJSON(eng *core.Engine, q core.Query, ids []dataset.ObjectID) []objectJSON {
	out := make([]objectJSON, len(ids))
	for i, id := range ids {
		o := eng.DS.Object(id)
		words := make([]string, o.Keywords.Len())
		for j, kid := range o.Keywords {
			words[j] = eng.DS.Vocab.Word(kid)
		}
		out[i] = objectJSON{
			ID: uint32(id), X: o.Loc.X, Y: o.Loc.Y,
			DistQ:    q.Loc.Dist(o.Loc),
			Keywords: words,
		}
	}
	return out
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request, p pin) {
	eng := p.eng
	q, cost, err := s.parseQuery(eng, r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	method, err := methodByName(r.URL.Query().Get("method"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := serveFault(); err != nil {
		writeSolveError(w, err)
		return
	}
	ctx, tr, explain := s.beginTrace(r, "query")
	start := time.Now()
	res, err := s.requestEngine(ctx, eng).SolveCtx(ctx, q, cost, method)
	x := s.finishTrace(r, tr, explain, time.Since(start), err, nil)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	writeQueryResponse(w, res, cost, method, res.Stats.Elapsed, s.objectsJSON(eng, q, res.Set), x)
}

// writeQueryResponse writes the /query body — and the degraded header —
// for a solved query, whichever handler stack solved it.
func writeQueryResponse(w http.ResponseWriter, res core.Result, cost core.CostKind, method core.Method,
	elapsed time.Duration, objs []objectJSON, x *trace.Export) {
	if res.Degraded {
		w.Header().Set("X-Coskq-Degraded", string(res.Stats.DegradeReason))
	}
	writeJSON(w, queryResponse{
		Cost:      res.Cost,
		CostKind:  cost.String(),
		Method:    method.String(),
		ElapsedMs: float64(elapsed.Microseconds()) / 1000,
		Objects:   objs,
		Degraded:  res.Degraded,
		Reason:    string(res.Stats.DegradeReason),
		Trace:     x,
	})
}

type topKResponse struct {
	Results []queryResponse `json:"results"`
	Trace   *trace.Export   `json:"trace,omitempty"`
}

func (s *server) handleTopK(w http.ResponseWriter, r *http.Request, p pin) {
	eng := p.eng
	q, cost, err := s.parseQuery(eng, r)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if cost != core.MaxSum && cost != core.Dia {
		jsonError(w, http.StatusBadRequest, "topk supports cost=maxsum and cost=dia")
		return
	}
	n := 3
	if nv := r.URL.Query().Get("n"); nv != "" {
		n, err = strconv.Atoi(nv)
		if err != nil || n <= 0 || n > 100 {
			jsonError(w, http.StatusBadRequest, "n must be in [1, 100]")
			return
		}
	}
	if err := serveFault(); err != nil {
		writeSolveError(w, err)
		return
	}
	ctx, tr, explain := s.beginTrace(r, "topk")
	start := time.Now()
	results, err := s.requestEngine(ctx, eng).TopKCtx(ctx, q, cost, n)
	x := s.finishTrace(r, tr, explain, time.Since(start), err, nil)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	if len(results) > 0 && results[0].Degraded {
		w.Header().Set("X-Coskq-Degraded", string(results[0].Stats.DegradeReason))
	}
	resp := topKResponse{Results: make([]queryResponse, len(results)), Trace: x}
	for i, res := range results {
		resp.Results[i] = queryResponse{
			Cost:     res.Cost,
			CostKind: cost.String(),
			Objects:  s.objectsJSON(eng, q, res.Set),
			Degraded: res.Degraded,
			Reason:   string(res.Stats.DegradeReason),
		}
	}
	writeJSON(w, resp)
}
