// Command coskq-server serves collective spatial keyword queries over
// HTTP: load a dataset (gob or CSV), build the engine once, and answer
// JSON query requests. A minimal deployment surface for the library,
// with the production robustness layer wired in: request logging, panic
// recovery, a per-request timeout that cancels in-flight searches, and
// metrics exposition.
//
// Usage:
//
//	coskq-server -data hotel.gob -addr :8080 [-timeout 30s] [-budget 0]
//	             [-degrade incumbent] [-max-inflight 64 -max-queue 128 -queue-timeout 2s]
//	             [-budget-per-second 2e6] [-pprof]
//
// Live-index mode (see DESIGN.md §16):
//
//	coskq-server -data hotel.gob -live [-ingest-backlog 4096] [-compact-frac 0.25]
//	    serves the same read surface over an epoch store, plus the
//	    mutation surface: POST /objects applies a JSON batch of
//	    insert/delete/edit ops (idempotent under a client "seq" token)
//	    and POST /objects/stream ingests NDJSON, one op per line.
//	    Reads pin one index generation end-to-end and never block on
//	    writes; writes shed with 429 when the apply backlog is full.
//
// Scatter-gather modes (see DESIGN.md §12):
//
//	coskq-server -data hotel.gob -shards 4 [-partition grid|subtree] [-shard-timeout 5s]
//	    partitions the dataset into in-process shards (a dataset and its
//	    posting lists each) and answers /query by scatter-gather across
//	    them.
//	coskq-server -peers http://h1:8080,http://h2:8080 [-shard-timeout 5s]
//	    serves as a coordinator fanning /query out to peer shard servers
//	    (every coskq-server exposes the /shard/* data plane).
//
// A flag the chosen mode would ignore exits 2, naming both flags:
// -partition needs -shards > 1; -shard-timeout needs -shards > 1 or
// -peers; -data and -shards cannot join -peers; and the single-engine
// flags -live, -nn-cache, -ingest-backlog and -compact-frac cannot join
// -shards > 1 or -peers. -budget, -budget-per-second and -degrade make
// one core.Config that every mode serves under: the engine's solves, or
// the router's pool solve and its shard-failure policy.
//
// Distributed observability (DESIGN.md §13): the coordinator propagates
// its request id and a W3C-style traceparent on every shard call, so
// /query?explain=1 returns one stitched trace covering coordinator and
// shards, and GET /metrics?federate=1 on the coordinator merges every
// peer's /metrics into one page with per-shard labels (the peer fan-out
// is bounded at 2s).
//
// Endpoints:
//
//	GET /stats
//	    → {"name":..., "objects":..., "uniqueWords":..., "avgKeywords":...}
//	GET /query?x=500&y=500&kw=w000001,w000004[&cost=maxsum][&method=exact]
//	    → {"cost":..., "elapsedMs":..., "objects":[{"id":..., "x":..., "y":..., "keywords":[...]}]}
//	    kw is a comma-separated keyword list (the coskq CLI's -k draws
//	    random query keywords for demos).
//	GET /topk?x=500&y=500&kw=...&n=5[&cost=maxsum]
//	    → {"results":[{...}, ...]} — the n cheapest irredundant sets
//	    (501 on a coordinator).
//	POST /batch, GET /shard/*, POST /objects (with -live)
//	    → see README.md; a coordinator mounts none of them.
//	GET /healthz
//	    → {"status":"ok", ...} liveness probe.
//	GET /metrics
//	    → text exposition of query counters and latency/effort histograms.
//	GET /debug/pprof/ (only with -pprof)
//	    → net/http/pprof profiles.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"coskq"
	"coskq/internal/client"
	"coskq/internal/core"
	"coskq/internal/epoch"
	"coskq/internal/metrics"
	"coskq/internal/server"
	"coskq/internal/shard"
)

func main() {
	var (
		data      = flag.String("data", "", "dataset file, .gob or .csv (required)")
		addr      = flag.String("addr", ":8080", "listen address")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request deadline; in-flight searches are cancelled at the deadline (0 disables)")
		budget    = flag.Int("budget", 0, "exact-search node budget per query, over-budget queries get 503 (0 = unlimited)")
		slowlog   = flag.Int("slowlog", 0, "slow-query log capacity for /debug/slowlog (0 = default, negative disables)")
		pprofFlag = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		degrade   = flag.String("degrade", "fail", "anytime-answer policy when budget/deadline trips a search: fail, incumbent, or fallback")
		inflight  = flag.Int("max-inflight", 0, "max concurrently solving /query+/topk requests, excess queues then sheds with 429 (0 = unlimited)")
		maxQueue  = flag.Int("max-queue", 0, "admission wait-queue depth beyond -max-inflight (0 = shed immediately when saturated)")
		queueWait = flag.Duration("queue-timeout", 0, "max time a request waits in the admission queue before a 429 (0 = bounded only by -timeout)")
		budgetPS  = flag.Float64("budget-per-second", 0, "derive each solve's node budget as rate x seconds left to its deadline (0 = disabled)")
		shards    = flag.Int("shards", 1, "partition -data into N in-process shards and answer /query by scatter-gather (1 = single engine)")
		partition = flag.String("partition", "", "shard partitioning strategy with -shards > 1: grid (the default) or subtree")
		peers     = flag.String("peers", "", "comma-separated peer shard server URLs; serve as a scatter-gather coordinator (takes no -data)")
		shardTO   = flag.Duration("shard-timeout", 0, "per-shard call deadline in scatter-gather modes (0 = bounded by -timeout)")
		nnCache   = flag.Int("nn-cache", 0, "engine keyword-NN cache capacity in entries, shared across queries (single-engine mode; 0 = disabled)")
		live      = flag.Bool("live", false, "serve a mutable live index: mount POST /objects and /objects/stream over an epoch store (single-engine mode)")
		backlog   = flag.Int("ingest-backlog", 0, "live mode: max pending mutation ops before writes shed with 429 (0 = 4096)")
		compact   = flag.Float64("compact-frac", 0, "live mode: re-pack (bulk-load a fresh tree) once the ops applied since the last one reach this fraction of the object count (0 = 0.25; negative never re-packs: measurements only)")
	)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	policy, ok := core.ParseDegradePolicy(*degrade)
	if !ok {
		fmt.Fprintf(os.Stderr, "coskq-server: unknown -degrade policy %q (use fail, incumbent, or fallback)\n", *degrade)
		os.Exit(2)
	}
	if *data == "" && *peers == "" {
		fmt.Fprintln(os.Stderr, "coskq-server: -data is required (or -peers for coordinator mode)")
		flag.Usage()
		os.Exit(2)
	}
	mf := modeFlags{shards: *shards, peers: *peers, data: *data, partition: *partition, shardTO: *shardTO,
		live: *live, nnCache: *nnCache, backlog: *backlog, compact: *compact}
	if err := mf.check(); err != nil {
		fmt.Fprintf(os.Stderr, "coskq-server: %v\n", err)
		os.Exit(2)
	}
	reg := metrics.NewRegistry()
	opts := server.Options{
		Timeout:      *timeout,
		Logger:       logger,
		Registry:     reg,
		SlowLog:      *slowlog,
		MaxInFlight:  *inflight,
		MaxQueue:     *maxQueue,
		QueueTimeout: *queueWait,
	}

	cfg := core.Config{NodeBudget: *budget, NodeBudgetPerSecond: *budgetPS, Degrade: policy}
	var solver core.Solver
	closeStore := func() {}
	switch {
	case *peers != "":
		var backends []shard.Backend
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				backends = append(backends, shard.NewHTTPBackend(&client.Client{Base: p}))
			}
		}
		if len(backends) == 0 {
			fmt.Fprintln(os.Stderr, "coskq-server: -peers lists no usable URLs")
			os.Exit(2)
		}
		rt := &shard.Router{
			Backends:     backends,
			Config:       cfg,
			ShardTimeout: *shardTO,
		}
		solver = rt
		logger.Info("scatter-gather coordinator", "peers", len(backends), "shard_timeout", *shardTO)

	case *shards > 1:
		ds := loadData(logger, *data)
		part, ok := shard.PartitionerByName(*partition)
		if !ok {
			fmt.Fprintf(os.Stderr, "coskq-server: unknown -partition strategy %q (use grid or subtree)\n", *partition)
			os.Exit(2)
		}
		rt, err := shard.NewLocalRouter(ds, *shards, part, 0)
		if err != nil {
			logger.Error("partitioning dataset", "err", err)
			os.Exit(1)
		}
		rt.Config = cfg
		rt.ShardTimeout = *shardTO
		solver = rt
		logger.Info("in-process scatter-gather", "shards", *shards, "partition", part.Name())

	default:
		ds := loadData(logger, *data)
		eng := coskq.NewEngine(ds, 0)
		eng.Config = cfg
		eng.Metrics = core.NewEngineMetrics(reg)
		eng.EnableNNCache(*nnCache) // after Metrics: hit/miss counters register on reg
		if *live {
			st := epoch.New(eng, epoch.Options{MaxBacklog: *backlog, CompactFrac: *compact})
			closeStore = st.Close
			solver = st
			logger.Info("live index enabled", "backlog", *backlog, "compact_frac", *compact)
		} else {
			solver = eng
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/", server.New(solver, opts))
	if *pprofFlag {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	srv := newHTTPServer(*addr, mux, logger)
	logger.Info("listening", "addr", *addr, "timeout", *timeout, "budget", *budget,
		"degrade", *degrade, "max_inflight", *inflight, "max_queue", *maxQueue)
	err := srv.ListenAndServe()
	// Stop the applier before exit so in-flight deltas finish cleanly.
	closeStore()
	if err != nil {
		logger.Error("server exited", "err", err)
		os.Exit(1)
	}
}

// newHTTPServer builds the listener's server. net/http's own messages —
// a recovered handler panic, a superfluous WriteHeader, an accept error —
// reach logger as error records instead of going through the log package.
func newHTTPServer(addr string, h http.Handler, logger *slog.Logger) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelError),
	}
}

// modeFlags are the flags that pick a serving mode, and the ones only
// some modes read.
type modeFlags struct {
	shards    int
	peers     string
	data      string
	partition string
	shardTO   time.Duration
	live      bool
	nnCache   int
	backlog   int
	compact   float64
}

// check rejects a flag the chosen mode would otherwise silently ignore,
// naming both flags: only a partitioned dataset has a partition
// strategy, only a fleet makes shard calls, a coordinator serves its
// peers' data rather than its own, and a router has no engine to cache
// keyword NNs on or apply writes to.
func (m modeFlags) check() error {
	sharded := m.shards > 1
	switch {
	case sharded && m.peers != "":
		return fmt.Errorf("-shards %d cannot be combined with -peers: a coordinator's shards are its peers", m.shards)
	case m.data != "" && m.peers != "":
		return errors.New("-data cannot be combined with -peers: a coordinator serves its peers' data")
	case m.partition != "" && !sharded:
		return errors.New("-partition only applies with -shards > 1")
	case m.shardTO != 0 && !sharded && m.peers == "":
		return errors.New("-shard-timeout only applies with -shards > 1 or -peers")
	}
	var mode string
	switch {
	case m.peers != "":
		mode = "-peers"
	case sharded:
		mode = fmt.Sprintf("-shards %d", m.shards)
	default:
		return nil
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"-live", m.live},
		{"-nn-cache", m.nnCache != 0},
		{"-ingest-backlog", m.backlog != 0},
		{"-compact-frac", m.compact != 0},
	} {
		if f.set {
			return fmt.Errorf("%s is single-engine only and cannot be combined with %s", f.name, mode)
		}
	}
	return nil
}

// loadData loads the dataset or exits.
func loadData(logger *slog.Logger, path string) *coskq.Dataset {
	var (
		ds  *coskq.Dataset
		err error
	)
	if strings.HasSuffix(path, ".csv") {
		ds, err = coskq.LoadCSVDataset(path)
	} else {
		ds, err = coskq.LoadDataset(path)
	}
	if err != nil {
		logger.Error("loading dataset", "path", path, "err", err)
		os.Exit(1)
	}
	logger.Info("dataset loaded", "name", ds.Name, "stats", ds.Stats().String())
	return ds
}
