package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/invindex"
	"coskq/internal/kwds"
)

// workload is one named traffic mix against one server configuration.
// The names, shapes and reasons are fixed by /BENCHMARK.json and
// bench/README.md; nothing here is selected by a workload's name.
type workload struct {
	name      string
	profile   datagen.Config // dataset, generated in-process; the same for every seed
	pool      int            // distinct requests per seed, cycled in order
	sizes     []int          // |q.ψ| cycle
	costs     []string       // cost cycle (advances once per sizes cycle)
	method    string
	batch     int    // queries per POST /batch; 0 sends GET /query
	live      bool   // -live: a writer connection posts churn beside the reads
	shards    int    // -shards: in-process scatter-gather (0: single engine)
	partition string // -partition
	nnCache   int    // -nn-cache entries
}

// flags returns the server flags beyond -data and -addr; everything
// else stays at the server's defaults.
func (w *workload) flags() []string {
	var f []string
	if w.nnCache > 0 {
		f = append(f, "-nn-cache", strconv.Itoa(w.nnCache))
	}
	if w.live {
		f = append(f, "-live")
	}
	if w.shards > 1 {
		f = append(f, "-shards", strconv.Itoa(w.shards), "-partition", w.partition)
	}
	return f
}

// The datasets are part of a workload's definition, like the paper's
// Hotel and GN: the run's seed draws the requests and the churn, not the
// data. Seeding the data too moved the mean solve effort of a 4,096-query
// pool by ±15 % from seed to seed, against ±4 % with the data fixed.
var (
	hotel = datagen.ProfileHotel(1)    // 20,790 objects, 602 words
	gn    = datagen.ProfileGN(1, 0.05) // 93,441 objects, 11,120 words
)

var bothCosts = []string{"maxsum", "dia"}

var workloads = []*workload{
	{name: "hotel-exact", profile: hotel, pool: 4096,
		sizes: []int{3, 6, 9, 12}, costs: bothCosts, method: "exact"},
	{name: "hotel-thin", profile: hotel, pool: 4096,
		sizes: []int{1, 2, 3}, costs: []string{"maxsum"}, method: "appro"},
	{name: "hotel-batch", profile: hotel, pool: 256,
		sizes: []int{3, 6}, costs: []string{"maxsum"}, method: "exact", batch: 64, nnCache: 4096},
	{name: "hotel-churn", profile: hotel, pool: 4096,
		sizes: []int{3, 6, 9}, costs: bothCosts, method: "exact", live: true},
	{name: "gn-sharded", profile: gn, pool: 4096,
		sizes: []int{3, 6, 9}, costs: bothCosts, method: "exact", shards: 4, partition: "subtree"},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// query is one CoSKQ query as it travels on the wire.
type query struct {
	X  float64  `json:"x"`
	Y  float64  `json:"y"`
	Kw []string `json:"kw"`
}

// request is one pool entry: a GET /query or a POST /batch, with its
// wire form prebuilt and, after the oracle ran, the expected cost of
// every query it carries.
type request struct {
	cost    string
	method  string
	queries []query
	path    string    // request target
	body    []byte    // POST body (batches only)
	want    []float64 // oracle cost per query; nil on live workloads, whose data moves
}

func (r *request) isBatch() bool { return r.body != nil }

// wire returns the HTTP method and body the request is sent with.
func (r *request) wire() (method string, body io.Reader) {
	if r.isBatch() {
		return http.MethodPost, bytes.NewReader(r.body)
	}
	return http.MethodGet, nil
}

// coreQueries interns the request's queries in ds's vocabulary.
func (r *request) coreQueries(ds *dataset.Dataset) []core.Query {
	out := make([]core.Query, len(r.queries))
	for i, q := range r.queries {
		ids := make([]kwds.ID, len(q.Kw))
		for j, w := range q.Kw {
			ids[j], _ = ds.Vocab.Lookup(w)
		}
		out[i] = core.Query{Loc: geo.Point{X: q.X, Y: q.Y}, Keywords: kwds.NewSet(ids...)}
	}
	return out
}

func costKind(s string) core.CostKind {
	if s == "dia" {
		return core.Dia
	}
	return core.MaxSum
}

func methodKind(s string) core.Method {
	if s == "appro" {
		return core.OwnerAppro
	}
	return core.OwnerExact
}

func wireQuery(ds *dataset.Dataset, loc geo.Point, kw kwds.Set) query {
	words := make([]string, len(kw))
	for i, id := range kw {
		words[i] = ds.Vocab.Word(id)
	}
	return query{X: loc.X, Y: loc.Y, Kw: words}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

type batchBody struct {
	Cost    string  `json:"cost"`
	Method  string  `json:"method"`
	Queries []query `json:"queries"`
}

// buildPool generates w's request pool from seed. Locations and keyword
// sets follow the paper's protocol (uniform location in the MBR, keywords
// from the top 40 % of the frequency ranking).
func buildPool(w *workload, ds *dataset.Dataset, inv *invindex.Index, seed int64) []request {
	g := datagen.NewQueryGen(ds, inv, 0, 40, seed)
	pool := make([]request, w.pool)
	if w.batch > 0 {
		fillBatches(pool, w, ds, datagen.NewQueryGen(ds, inv, 0, 40, 1), g, seed)
		return pool
	}
	for i := range pool {
		loc, kw := g.Next(w.sizes[i%len(w.sizes)])
		r := request{
			cost:    w.costs[(i/len(w.sizes))%len(w.costs)],
			method:  w.method,
			queries: []query{wireQuery(ds, loc, kw)},
		}
		q := r.queries[0]
		r.path = "/query?x=" + fmtFloat(q.X) + "&y=" + fmtFloat(q.Y) +
			"&kw=" + strings.Join(q.Kw, ",") + "&cost=" + r.cost + "&method=" + r.method
		pool[i] = r
	}
	return pool
}

// fillBatches builds the skewed batch shape of
// internal/core/batchgroup_test.go's skewedBatch on the real dataset:
// four hot locations with popular keyword sets drawn zipf(1.4), a little
// jitter, every seventh member one extra keyword, and every fifth member
// an unrelated paper-protocol query. The hot spots come from hotGen,
// which is seeded like the dataset: where the popular places are belongs
// to the workload, and with four of them a per-seed draw moved the
// throughput by 4x. The seed draws who asks, the jitter and the tail.
func fillBatches(pool []request, w *workload, ds *dataset.Dataset, hotGen, g *datagen.QueryGen, seed int64) {
	type hot struct {
		loc geo.Point
		kw  kwds.Set
	}
	hots := make([]hot, 4)
	for i := range hots {
		hots[i].loc, hots[i].kw = hotGen.Next(3 + i%3)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(hots)-1))
	for b := range pool {
		r := request{cost: w.costs[0], method: w.method, path: "/batch", queries: make([]query, w.batch)}
		for i := range r.queries {
			if i%5 == 4 {
				loc, kw := g.Next(w.sizes[rng.Intn(len(w.sizes))])
				r.queries[i] = wireQuery(ds, loc, kw)
				continue
			}
			h := hots[zipf.Uint64()]
			kw := h.kw
			if i%7 == 3 {
				_, extra := g.Next(1)
				kw = kw.Union(extra)
			}
			loc := geo.Point{X: h.loc.X + rng.Float64()*0.2, Y: h.loc.Y + rng.Float64()*0.2}
			r.queries[i] = wireQuery(ds, loc, kw)
		}
		// Marshal of plain structs of floats and strings cannot fail.
		r.body, _ = json.Marshal(batchBody{Cost: r.cost, Method: r.method, Queries: r.queries})
		pool[b] = r
	}
}

// churnOps is the size of one POST /objects write batch.
const churnOps = 32

type churnOp struct {
	Op  string   `json:"op"`
	Key uint64   `json:"key"`
	X   float64  `json:"x"`
	Y   float64  `json:"y"`
	Kw  []string `json:"kw,omitempty"`
}

// newChurn returns the write stream for a dataset of n objects: the
// default 0.4/0.3/0.3 insert/delete/edit mix over the dataset's own
// vocabulary, so churn keeps the keyword skew the queries rely on.
func newChurn(seed int64, n, vocab int) *datagen.ChurnStream {
	return datagen.NewChurnStream(datagen.ChurnConfig{Seed: seed, Ops: 1 << 30, SeedKeys: n, Vocab: vocab})
}

// nextChurn draws the next write batch from s.
func nextChurn(s *datagen.ChurnStream) []datagen.ChurnOp {
	ops := make([]datagen.ChurnOp, churnOps)
	for i := range ops {
		ops[i], _ = s.Next()
	}
	return ops
}

// churnBody renders a write batch as a POST /objects body.
func churnBody(batch []datagen.ChurnOp) []byte {
	ops := make([]churnOp, len(batch))
	for i, op := range batch {
		ops[i] = churnOp{Op: op.Kind, Key: op.Key, X: op.Loc.X, Y: op.Loc.Y, Kw: op.Words}
	}
	body, _ := json.Marshal(struct {
		Ops []churnOp `json:"ops"`
	}{ops})
	return body
}
