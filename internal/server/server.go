// Package server implements the HTTP/JSON query surface of coskq-server:
// one handler stack, built by New, over one core.Solver — an engine, a live
// epoch store, or a shard router. Queries are read-only, so the handler
// serves concurrent requests safely.
//
// The handler stack runs on the connection's own goroutine, in one pass
// (server.ServeHTTP): request id → per-request deadline → panic recovery
// → route mux, then request logging + HTTP metrics for the status
// actually sent, with the query-serving routes additionally behind the
// admission controller (bounded in-flight + bounded queue, overload shed
// with 429). Every solver is served:
//
//	GET /query          one CoSKQ answer (?explain=1 inlines the trace)
//	POST /batch         many queries in one request (batch.go)
//	GET /healthz        liveness probe
//	GET /metrics        text exposition of the query/effort/latency metrics
//	GET /debug/slowlog  the retained slowest queries and their effort
//
// An engine or a store is also served (each read pins one generation):
//
//	GET /stats          dataset statistics
//	GET /topk           the n cheapest irredundant sets (?explain=1 too)
//	GET /shard/*        the scatter-gather data plane (shard.go)
//
// A store adds POST /objects and POST /objects/stream (objects.go). A
// router — the scatter-gather coordinator — answers /topk with 501 and
// /metrics?federate=1 with its peers' pages merged in.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	"coskq/internal/epoch"
	"coskq/internal/fault"
	"coskq/internal/geo"
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
	// Timeout bounds each request's handling time. At the deadline the
	// request context is cancelled, which unwinds an in-flight search via
	// the solvers' cancellation polls, and a pending read of the request
	// body fails (the connection's read deadline, set around each read),
	// so a slowly sent body cannot outlive it. The deadline is decided
	// when the handler commits its response (its first WriteHeader or
	// Write): a response committed before the deadline goes out whole,
	// one committed after it is dropped and the client receives a JSON
	// 504 instead (a JSON 503 when the client disconnected first). Zero
	// disables the deadline (handlers still honour cancellation of the
	// client connection's context).
	Timeout time.Duration
	// Logger receives one structured record per request (request id,
	// method, URI, status, duration) and panic reports. Nil disables
	// logging.
	Logger *slog.Logger
	// Registry collects HTTP-layer metrics and backs GET /metrics. Nil
	// means: reuse the engine sink's registry when the engine has one,
	// else create a fresh registry. When the engine or router served has
	// no metrics sink, one recording into this registry is attached, so
	// solver and HTTP metrics share a single exposition.
	Registry *metrics.Registry
	// SlowLog sets the capacity of the slow-query log served at
	// GET /debug/slowlog. Zero means DefaultSlowLogSize; negative
	// disables the log.
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
}

// New returns the handler stack over sv. The routes it mounts follow
// from sv's type (see the package comment). When the engine or router
// served has no metrics sink, one recording into the handler's registry
// is attached (call before sv serves queries elsewhere).
func New(sv core.Solver, opts Options) http.Handler {
	s := &server{
		solver:  sv,
		log:     opts.Logger,
		timeout: opts.Timeout,
	}
	var eng *core.Engine
	switch sv := sv.(type) {
	case *core.Engine:
		s.eng, eng = sv, sv
	case *epoch.Store:
		s.store = sv
		g := sv.Pin()
		eng = g.Eng
		g.Unpin()
	case *shard.Router:
		s.router = sv
	}
	s.reg = opts.Registry
	if s.reg == nil && eng != nil && eng.Metrics != nil {
		s.reg = eng.Metrics.Registry()
	}
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	if eng != nil && eng.Metrics == nil {
		eng.Metrics = core.NewEngineMetrics(s.reg)
	}
	if s.router != nil && s.router.Metrics == nil {
		s.router.Metrics = shard.NewMetrics(s.reg)
	}
	s.httpLatency = s.reg.Histogram("coskq_http_request_seconds", httpLatencyBuckets)
	if opts.MaxInFlight > 0 {
		s.adm = newAdmission(s.reg, opts.MaxInFlight, opts.MaxQueue, opts.QueueTimeout, time.Second)
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

	mux := http.NewServeMux()
	mux.Handle("GET /query", s.adm.middleware(http.HandlerFunc(s.handleQuery)))
	mux.Handle("POST /batch", s.adm.middleware(s.pinned(s.handleBatch)))
	mux.HandleFunc("GET /healthz", s.pinned(s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/slowlog", s.handleSlowLog)
	if s.router != nil {
		mux.HandleFunc("GET /topk", func(w http.ResponseWriter, r *http.Request) {
			jsonError(w, http.StatusNotImplemented, "topk is not served in scatter-gather mode; query a shard server directly")
		})
	}
	if eng != nil {
		mux.HandleFunc("GET /stats", s.pinned(s.handleStats))
		mux.Handle("GET /topk", s.adm.middleware(s.pinned(s.handleTopK)))
		// Every engine server is also a shard: the scatter-gather data
		// plane is always mounted so any dataset server can join a fleet
		// (shard.go).
		mux.HandleFunc("GET /shard/meta", s.pinned(s.handleShardMeta))
		mux.Handle("GET /shard/nn", s.adm.middleware(s.pinned(s.handleShardNN)))
		mux.Handle("GET /shard/collect", s.adm.middleware(s.pinned(s.handleShardCollect)))
	}
	if s.store != nil {
		// The write path is not behind the admission controller: a
		// mutation batch only validates and enqueues, and its own
		// overload control is the store's bounded backlog (429).
		mux.HandleFunc("POST /objects", s.handleObjects)
		mux.HandleFunc("POST /objects/stream", s.handleObjectsStream)
	}
	s.mux = mux
	return s
}

// NewWith returns the handler stack over eng.
func NewWith(eng *core.Engine, opts Options) http.Handler { return New(eng, opts) }

// NewLive returns the handler stack over a live epoch store. The caller
// owns the store's lifecycle (Close it after the listener stops).
func NewLive(st *epoch.Store, opts Options) http.Handler { return New(st, opts) }

// NewScatterGather returns the coordinator handler stack over a shard
// router.
func NewScatterGather(rt *shard.Router, opts Options) http.Handler { return New(rt, opts) }

var httpLatencyBuckets = []float64{
	1e-3, 2.5e-3, 10e-3, 25e-3, 100e-3, 250e-3, 1, 2.5, 10,
}

type server struct {
	solver core.Solver
	// At most one of eng, store and router is set: the solver's type,
	// which decides the routes mounted beside /query and /batch.
	eng    *core.Engine
	store  *epoch.Store
	router *shard.Router

	mux         *http.ServeMux
	timeout     time.Duration
	reg         *metrics.Registry
	log         *slog.Logger
	slow        *trace.SlowLog
	httpLatency *metrics.Histogram
	adm         *admission
	idToken     string
	idCounter   atomic.Uint64

	// requests holds the resolved coskq_http_requests_total series, one
	// per (route, status) served so far; it is replaced, never written,
	// so the lookup on every request takes no lock (requestCounter).
	requests   atomic.Pointer[map[routeStatus]*metrics.Counter]
	requestsMu sync.Mutex

	// shardB is the shard data plane's backend and the generation it
	// wraps (0 on a static server), so the data plane doesn't rescan the
	// dataset for its keyword summary on every call (shard.go).
	shardB atomic.Pointer[genBackend]
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
// engine, a coordinator none. Handlers never pin for themselves — /query
// leaves it to Store.SolveWords — so none can leak a pin.
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

// ServeHTTP is the whole handler stack, run in one pass on the
// connection's goroutine: it assigns the request id, puts it and the
// deadline on the request context, serves the route under panic
// recovery, and then records the status actually sent in the request
// counter, the latency histogram and the access log.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := s.requestID(r)
	w.Header().Set("X-Request-Id", id)
	rw, r, cancel := serveUnder(trace.ContextWithRequestID(r.Context(), id), w, r, start, s.timeout)
	defer cancel()
	abort := s.serveRecovering(rw, r)
	rw.finish()
	elapsed := time.Since(start)
	status := rw.sent()
	s.requestCounter(routeLabel(r.URL.Path), status).Inc()
	s.httpLatency.Observe(elapsed.Seconds())
	if s.log != nil {
		// Typed attributes: the record Info would build, without boxing
		// each value.
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("uri", r.URL.RequestURI()),
			slog.Int("status", status),
			slog.Duration("dur", elapsed.Round(time.Microsecond)))
	}
	if abort {
		panic(http.ErrAbortHandler)
	}
}

// requestID returns the request's id. A valid inbound X-Request-Id is
// adopted — the coordinator's id then appears on every shard server's
// log line of one distributed query — else one is minted from the
// server's random token and a counter. The id is echoed in the
// X-Request-Id response header and carried on the request context
// (trace.ContextWithRequestID), so log lines and slow-log entries
// correlate with responses and outbound calls made under the request
// forward it.
func (s *server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); trace.ValidRequestID(id) {
		return id
	}
	var buf [32]byte
	b := append(buf[:0], s.idToken...)
	b = append(b, '-')
	b = strconv.AppendUint(b, s.idCounter.Add(1), 10)
	return string(b)
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

// routeStatus keys one coskq_http_requests_total series.
type routeStatus struct {
	route  string
	status int
}

// requestCounter returns the coskq_http_requests_total series of one
// route and status, registering it on first use. Both are bounded
// vocabularies (routeLabel, the statuses the handlers send), so the map
// stays small; a miss copies it under requestsMu.
func (s *server) requestCounter(route string, status int) *metrics.Counter {
	key := routeStatus{route, status}
	if m := s.requests.Load(); m != nil {
		if c := (*m)[key]; c != nil {
			return c
		}
	}
	s.requestsMu.Lock()
	defer s.requestsMu.Unlock()
	old := s.requests.Load()
	if old != nil {
		if c := (*old)[key]; c != nil {
			return c
		}
	}
	next := make(map[routeStatus]*metrics.Counter)
	if old != nil {
		for k, c := range *old {
			next[k] = c
		}
	}
	c := s.reg.Counter(fmt.Sprintf("coskq_http_requests_total{path=%q,status=\"%d\"}", route, status))
	next[key] = c
	s.requests.Store(&next)
	return c
}

// serveUnder wraps one request for its handlers: the writer returned
// records the status sent, the request returned carries ctx, and when
// d > 0 both run under a deadline d after start — on the request's
// context, at commit time (responseWriter) and on its body's reads
// (deadlineBody). Call cancel when the request is done.
func serveUnder(ctx context.Context, w http.ResponseWriter, r *http.Request, start time.Time, d time.Duration) (*responseWriter, *http.Request, context.CancelFunc) {
	rw := &responseWriter{ResponseWriter: w}
	cancel := context.CancelFunc(noCancel)
	if d > 0 {
		rw.expires, rw.timeout = start.Add(d), d
		ctx, cancel = context.WithDeadline(ctx, rw.expires)
		rw.deadline = ctx
	}
	r = r.WithContext(ctx)
	if d > 0 && r.Body != nil && r.Body != http.NoBody {
		rw.body = deadlineBody{ReadCloser: r.Body, w: rw}
		r.Body = &rw.body
	}
	return rw, r, cancel
}

func noCancel() {}

// responseWriter is the one writer a request's handlers write through.
// It records the status sent, for the access log and the request
// counter, and under a deadline it decides at commit time — the
// handler's first WriteHeader or Write — whether the handler's response
// goes out: committed before the deadline, it goes out whole; after it
// (or after the client disconnected), the client gets the JSON 504
// (deadline) or 503 (disconnect) and every byte the handler writes is
// dropped.
type responseWriter struct {
	http.ResponseWriter
	status   int             // the status sent; 0 until the response commits
	dropped  bool            // the deadline's error went out in the handler's place
	deadline context.Context // the request's deadline context; nil without one
	expires  time.Time       // the deadline
	timeout  time.Duration
	// closeConn: a body read ran past the deadline, so the connection
	// may carry a cancelled context or an unread body; the error reply
	// closes it (deadlineBody).
	closeConn bool
	body      deadlineBody
}

// expired reports whether the handler's response can no longer go out:
// the deadline passed — by the clock, so a body read failed by the
// connection's read deadline counts even before the context's timer
// fires — or the request's context ended.
func (w *responseWriter) expired() bool {
	return w.deadline != nil && (w.deadline.Err() != nil || !time.Now().Before(w.expires))
}

// commit sends the status line on the first call and reports whether
// the handler's bytes go out.
func (w *responseWriter) commit(code int) bool {
	if w.status == 0 {
		if w.expired() {
			w.expire()
			return false
		}
		w.status = code
		w.ResponseWriter.WriteHeader(code)
	}
	return !w.dropped
}

func (w *responseWriter) WriteHeader(code int) { w.commit(code) }

func (w *responseWriter) Write(p []byte) (int, error) {
	if !w.commit(http.StatusOK) {
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}

// finish writes the deadline's error for a handler that returned
// without writing anything after its deadline.
func (w *responseWriter) finish() {
	if w.status == 0 && w.expired() {
		w.expire()
	}
}

// expire sends the deadline's error in the handler's place. Deadline
// expiry and client disconnect are different failures: the deadline is
// the server's 504, a connection dropped before it a 503 (written mostly
// for the access log — the client is gone). Both use the JSON error
// envelope so every middleware failure parses uniformly. The headers the
// handler set go with its bytes; the request id, set above the handler,
// stays.
func (w *responseWriter) expire() {
	w.dropped = true
	h := w.ResponseWriter.Header()
	for k := range h {
		if k != "X-Request-Id" {
			delete(h, k)
		}
	}
	if w.closeConn {
		h.Set("Connection", "close")
	}
	if errors.Is(w.deadline.Err(), context.Canceled) && time.Now().Before(w.expires) {
		w.status = http.StatusServiceUnavailable
		jsonError(w.ResponseWriter, w.status, "client disconnected before the response was ready")
		return
	}
	w.status = http.StatusGatewayTimeout
	jsonError(w.ResponseWriter, w.status, "request exceeded the %v server timeout", w.timeout)
}

// sent returns the status the client received: a handler that wrote
// nothing sends net/http's implicit 200.
func (w *responseWriter) sent() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// deadlineBody bounds a request body's reads by the request deadline.
// The deadline context does not interrupt a read blocked on a slow
// client, which would otherwise hold the handler — and its admission
// slot — for as long as the client keeps sending. It sets the
// connection's read deadline around each read only: net/http's
// background read, which watches for a disconnect once the body is
// done, cancels the connection's context — and so every later request
// on it — if it times out. For the body's reads the request deadline
// takes the place of the listener's own ReadTimeout, if it has one.
// The handlers read their bodies before they write, so a read that
// ends past the deadline is followed by the 504, which closes the
// connection (responseWriter.closeConn).
type deadlineBody struct {
	io.ReadCloser
	w           *responseWriter
	unsupported bool // the connection takes no read deadline
}

func (b *deadlineBody) Read(p []byte) (int, error) {
	if b.unsupported {
		return b.ReadCloser.Read(p)
	}
	rc := http.NewResponseController(b.w.ResponseWriter)
	if rc.SetReadDeadline(b.w.expires) != nil {
		b.unsupported = true
		return b.ReadCloser.Read(p)
	}
	n, err := b.ReadCloser.Read(p)
	rc.SetReadDeadline(time.Time{})
	if !time.Now().Before(b.w.expires) {
		// The read ran into the deadline: it failed, or it ended the
		// body and the background read may already have timed out.
		// Later reads fail at once, so net/http discards no more of a
		// slow body, and the reply closes the connection.
		rc.SetReadDeadline(b.w.expires)
		b.w.closeConn = true
	}
	return n, err
}

// serveRecovering serves r with the route mux, converting a panic into
// a logged JSON 500 and preserving http.ErrAbortHandler's contract. A
// response already committed cannot become a 500: serveRecovering
// records the 500 and reports abort, and the caller aborts the
// connection (http.ErrAbortHandler) so the client sees a broken
// response, not the envelope appended to the handler's bytes.
func (s *server) serveRecovering(w *responseWriter, r *http.Request) (abort bool) {
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
				"id", trace.RequestIDFromContext(r.Context()),
				"method", r.Method,
				"path", r.URL.Path,
				"panic", fmt.Sprint(p),
				"stack", string(debug.Stack()))
		}
		if w.status != 0 {
			// A dropped response already sent the deadline's error
			// whole; the handler's panic changes nothing the client sees.
			if !w.dropped {
				w.status = http.StatusInternalServerError
				abort = true
			}
			return
		}
		jsonError(w, http.StatusInternalServerError, "internal server error")
	}()
	s.mux.ServeHTTP(w, r)
	return false
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody decodes a request body of at most limit bytes that holds
// exactly one JSON value into v: a second value, or anything else after
// the first but white space, is an error, so a body meant for another
// route (NDJSON on /objects) is refused rather than half applied.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// solveError maps a solve error onto its HTTP status and message, the
// one vocabulary /query, /topk, the shard data plane and /batch items
// share: a shard failure the router could not degrade around is an
// upstream failure (502, retryable); infeasible queries are a semantic
// 422; exhausted budgets and cancelled requests are 503 (the server
// refused to spend more effort); a deadline hit inside the solve is 504;
// anything else is the client's fault.
func solveError(err error) (int, string) {
	var se *shard.ShardError
	switch {
	case errors.As(err, &se):
		return http.StatusBadGateway, se.Error()
	case errors.Is(err, core.ErrInfeasible):
		return http.StatusUnprocessableEntity, "query keywords cannot be covered"
	case errors.Is(err, core.ErrBudgetExceeded):
		return http.StatusServiceUnavailable, "query exceeded the server's search budget"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "query exceeded the server timeout"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "query cancelled"
	}
	return http.StatusBadRequest, err.Error()
}

func writeSolveError(w http.ResponseWriter, err error) {
	status, msg := solveError(err)
	jsonError(w, status, "%s", msg)
}

type statsResponse struct {
	Name        string  `json:"name"`
	Gen         uint64  `json:"gen"`
	Objects     int     `json:"objects"`
	UniqueWords int     `json:"uniqueWords"`
	Words       int     `json:"words"`
	AvgKeywords float64 `json:"avgKeywords"`
}

// handleHealthz is the liveness/readiness probe: the solver is built
// before the listener starts, so reaching this handler means the server
// can answer queries.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request, p pin) {
	body := map[string]any{"status": "ok"}
	if s.router != nil {
		body["mode"] = "scatter-gather"
		body["shards"] = len(s.router.Backends)
	} else if p.eng != nil {
		body["dataset"] = p.eng.DS.Name
		body["objects"] = p.eng.DS.Len()
	}
	if s.store != nil {
		body["gen"] = p.gen
		body["backlog"] = s.store.Backlog()
	}
	writeJSON(w, body)
}

// handleMetrics serves the text exposition of every counter and
// histogram in the shared registry (solver + HTTP layer); on a
// coordinator, ?federate=1 merges in every peer's page (federate).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.router != nil && r.URL.Query().Get("federate") == "1" {
		s.federate(w, r)
		return
	}
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

// beginTrace starts the request's trace when it asked for one
// (?explain=1); an untraced request keeps its context and a nil trace.
// A traced coordinator request also gets a span context, so its shard
// calls carry a traceparent and remote fragments join one trace; an
// untraced route sends none, and its shards build no fragment.
func (s *server) beginTrace(r *http.Request, explain bool, root string) (context.Context, *trace.Trace) {
	if !explain {
		return r.Context(), nil
	}
	tr := trace.New(root)
	ctx := trace.NewContext(r.Context(), tr)
	if s.router != nil {
		ctx = trace.ContextWithSpanContext(ctx, trace.NewSpanContext())
	}
	return ctx, tr
}

// observeSlow offers one finished execution to the slow-query log. The
// entry — the answer's effort counters, phases, prunes and degrade
// reason, a routed query's shard calls, and the trace x when the
// request was traced — is built only once the log admits it.
func (s *server) observeSlow(r *http.Request, elapsed time.Duration, st core.Stats, shards []trace.ShardCall, x *trace.Export, err error) {
	ms := float64(elapsed.Microseconds()) / 1000
	if s.slow == nil || !s.slow.Admits(ms) {
		return
	}
	e := trace.Entry{
		Time:          time.Now(),
		ID:            trace.RequestIDFromContext(r.Context()),
		Query:         r.URL.RequestURI(),
		ElapsedMs:     ms,
		OwnersTried:   st.OwnersTried,
		SetsEvaluated: st.SetsEvaluated,
		Nodes:         st.NodesExpanded,
		Candidates:    st.CandidatesSeen,
		SeedUs:        float64(st.Phases.Seed) / 1e3,
		MaterializeUs: float64(st.Phases.Materialize) / 1e3,
		SearchUs:      float64(st.Phases.Search) / 1e3,
		Prunes:        st.Prunes.Map(),
		DegradeReason: string(st.DegradeReason),
		Shards:        shards,
		Trace:         x,
	}
	if err != nil {
		e.Err = err.Error()
	}
	s.slow.Observe(e)
}

// slowLogResponse is the GET /debug/slowlog body.
type slowLogResponse struct {
	Capacity int           `json:"capacity"`
	Entries  []trace.Entry `json:"entries"`
}

// handleSlowLog serves the retained slowest query executions, slowest
// first, each with its effort and, when it was traced, its trace.
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

// parseQuery extracts the parameters /query and /topk share: location,
// keyword strings and cost.
func parseQuery(q url.Values) (geo.Point, []string, core.CostKind, error) {
	loc, err := parseLoc(q)
	if err != nil {
		return loc, nil, 0, err
	}
	words := splitKeywords(q.Get("kw"))
	if len(words) == 0 {
		return loc, nil, 0, errors.New("provide kw=a,b,c")
	}
	cost, err := costByName(q.Get("cost"))
	return loc, words, cost, err
}

// splitKeywords splits a kw=a,b,c parameter into its keyword list
// (keywordList) — the reading that /query, /topk and the shard data
// plane share.
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

// objectsJSON renders an answer's members for the wire.
func objectsJSON(loc geo.Point, members []core.Member) []objectJSON {
	out := make([]objectJSON, len(members))
	for i, m := range members {
		out[i] = objectJSON{
			ID: uint32(m.ID), X: m.Loc.X, Y: m.Loc.Y,
			DistQ:    loc.Dist(m.Loc),
			Keywords: m.Words,
		}
	}
	return out
}

// handleQuery serves /query on every solver: the same parameters, the
// same response shape, elapsedMs on the handler's clock around the
// solve.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	loc, words, cost, err := parseQuery(q)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	method, err := methodByName(q.Get("method"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := core.HitFault(fault.ServerHandle); err != nil {
		writeSolveError(w, err)
		return
	}
	ctx, tr := s.beginTrace(r, q.Get("explain") == "1", "query")
	start := time.Now()
	ans, err := s.solver.SolveWords(ctx, loc, words, cost, method)
	elapsed := time.Since(start)
	tr.Finish()
	x := tr.Export()
	s.observeSlow(r, elapsed, ans.Stats, ans.Calls, x, err)
	if err != nil {
		writeSolveError(w, err)
		return
	}
	if ans.Degraded {
		w.Header().Set("X-Coskq-Degraded", string(ans.Stats.DegradeReason))
	}
	resp := queryResponse{
		Cost:      ans.Cost,
		CostKind:  cost.String(),
		Method:    method.String(),
		ElapsedMs: float64(elapsed.Microseconds()) / 1000,
		Objects:   objectsJSON(loc, ans.Members),
		Degraded:  ans.Degraded,
		Reason:    string(ans.Stats.DegradeReason),
		Trace:     x,
	}
	bb := bodyPool.Get().(*bodyBuf)
	bb.b, err = resp.appendJSON(bb.b)
	writeBody(w, bb, err)
}

type topKResponse struct {
	Results []queryResponse `json:"results"`
	Trace   *trace.Export   `json:"trace,omitempty"`
}

func (s *server) handleTopK(w http.ResponseWriter, r *http.Request, p pin) {
	q := r.URL.Query()
	loc, words, cost, err := parseQuery(q)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	keywords, err := p.eng.ResolveWords(words)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n := 3
	if nv := q.Get("n"); nv != "" {
		n, err = strconv.Atoi(nv)
		if err != nil || n <= 0 || n > 100 {
			jsonError(w, http.StatusBadRequest, "n must be in [1, 100]")
			return
		}
	}
	if err := core.HitFault(fault.ServerHandle); err != nil {
		writeSolveError(w, err)
		return
	}
	ctx, tr := s.beginTrace(r, q.Get("explain") == "1", "topk")
	start := time.Now()
	results, err := p.eng.TopKCtx(ctx, core.Query{Loc: loc, Keywords: keywords}, cost, n)
	elapsed := time.Since(start)
	tr.Finish()
	x := tr.Export()
	var st core.Stats
	if len(results) > 0 {
		st = results[0].Stats
	}
	s.observeSlow(r, elapsed, st, nil, x, err)
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
			Objects:  objectsJSON(loc, p.eng.Members(res.Set)),
			Degraded: res.Degraded,
			Reason:   string(res.Stats.DegradeReason),
		}
	}
	writeJSON(w, resp)
}
