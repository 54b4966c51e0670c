package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"coskq/internal/client"
	"coskq/internal/core"
	"coskq/internal/dataset"
	"coskq/internal/epoch"
	"coskq/internal/geo"
	"coskq/internal/server"
	"coskq/internal/shard"
)

// serveFunc answers qs under (cost, method) the way one path does, one
// answer per query.
type serveFunc func(t *testing.T, qs []query, cost core.CostKind, m core.Method) []answer

// path is one column of the matrix: a way a query gets answered.
type path struct {
	name string
	// http paths serve the methods httpMethods names, take the
	// adversarial rows and skip the large rows.
	http bool
	// coord paths are scatter-gather coordinators: a word no shard knows
	// makes the query infeasible (422) rather than malformed (400).
	coord bool
	// globalIDs paths report the ids of the objects they serve, so their
	// exact answers must be the reference engine's canonical sets.
	globalIDs bool
	build     func(t *testing.T, w *world) serveFunc
}

// httpMethods spells every method the HTTP surface serves.
var httpMethods = map[core.Method]string{
	core.OwnerExact: "exact",
	core.OwnerAppro: "appro",
	core.CaoExact:   "cao-exact",
	core.CaoAppro1:  "cao-appro1",
	core.CaoAppro2:  "cao-appro2",
}

var paths = func() []*path {
	ps := []*path{
		{name: "engine", globalIDs: true, build: func(t *testing.T, w *world) serveFunc {
			return solve(core.NewEngine(w.objs, 8))
		}},
		{name: "batch", globalIDs: true, build: func(t *testing.T, w *world) serveFunc {
			return solveBatch(w, core.NewEngine(w.objs, 8))
		}},
		{name: "batch-nncache", globalIDs: true, build: func(t *testing.T, w *world) serveFunc {
			eng := core.NewEngine(w.objs, 8)
			eng.EnableNNCache(16)
			return solveBatch(w, eng)
		}},
	}
	for _, part := range []shard.Partitioner{shard.Grid(), shard.Subtree()} {
		for _, n := range []int{1, 2, 4, 7} {
			ps = append(ps, &path{name: fmt.Sprintf("router-%s-%d", part.Name(), n), globalIDs: true,
				build: func(t *testing.T, w *world) serveFunc { return solve(newRouter(t, w.objs, part, n)) }})
		}
	}
	return append(ps,
		&path{name: "store", globalIDs: true, build: func(t *testing.T, w *world) serveFunc {
			return solve(w.store)
		}},
		&path{name: "http-query", http: true, globalIDs: true, build: func(t *testing.T, w *world) serveFunc {
			return httpQuery(serve(t, core.NewEngine(w.objs, 0)))
		}},
		&path{name: "http-batch", http: true, globalIDs: true, build: func(t *testing.T, w *world) serveFunc {
			return batchAsQuery(serve(t, core.NewEngine(w.objs, 0)))
		}},
		&path{name: "http-live", http: true, globalIDs: true, build: func(t *testing.T, w *world) serveFunc {
			return httpQuery(serveLive(t, w))
		}},
		&path{name: "http-batch-live", http: true, globalIDs: true, build: func(t *testing.T, w *world) serveFunc {
			return batchAsQuery(serveLive(t, w))
		}},
		&path{name: "http-scatter", http: true, coord: true, globalIDs: true, build: func(t *testing.T, w *world) serveFunc {
			return httpQuery(serve(t, newRouter(t, w.objs, shard.Subtree(), 4)))
		}},
		&path{name: "http-batch-scatter-grid", http: true, coord: true, globalIDs: true, build: func(t *testing.T, w *world) serveFunc {
			return batchAsQuery(serve(t, newRouter(t, w.objs, shard.Grid(), 4)))
		}},
		&path{name: "http-batch-scatter-subtree", http: true, coord: true, globalIDs: true, build: func(t *testing.T, w *world) serveFunc {
			return batchAsQuery(serve(t, newRouter(t, w.objs, shard.Subtree(), 4)))
		}},
		&path{name: "http-peers", http: true, coord: true, build: func(t *testing.T, w *world) serveFunc {
			return httpQuery(servePeers(t, w))
		}},
		&path{name: "http-batch-peers", http: true, coord: true, build: func(t *testing.T, w *world) serveFunc {
			return batchAsQuery(servePeers(t, w))
		}},
	)
}()

// solve answers through a solver's own entry point, which takes the
// query's words as sent, duplicates included.
func solve(sv core.Solver) serveFunc {
	return func(t *testing.T, qs []query, cost core.CostKind, m core.Method) []answer {
		out := make([]answer, len(qs))
		for i, q := range qs {
			ans, err := sv.SolveWords(context.Background(), q.loc, q.words, cost, m)
			out[i] = answer{classOf(err), ans.Cost, membersOf(ans.Members), ans.Degraded}
		}
		return out
	}
}

func solveBatch(w *world, eng *core.Engine) serveFunc {
	return func(t *testing.T, qs []query, cost core.CostKind, m core.Method) []answer {
		batch := make([]core.Query, len(qs))
		for i, q := range qs {
			batch[i] = w.resolve(t, q)
		}
		out := make([]answer, len(qs))
		for i, item := range eng.SolveBatchCtx(context.Background(), batch, cost, m, 2) {
			res := item.Result
			out[i] = answer{classOf(item.Err), res.Cost, membersOf(eng.Members(res.Set)), res.Degraded}
		}
		return out
	}
}

func newRouter(t *testing.T, ds *dataset.Dataset, part shard.Partitioner, n int) *shard.Router {
	t.Helper()
	r, err := shard.NewLocalRouter(ds, n, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// serve starts server.New over sv and returns its URL.
func serve(t *testing.T, sv core.Solver) string {
	srv := httptest.NewServer(server.New(sv, server.Options{}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// serveLive serves the world from a live server that reaches it through
// POST /objects, holds the generation it ends with to the objects every
// other path serves, slot by slot, and returns the server's URL.
func serveLive(t *testing.T, w *world) string {
	st := epoch.New(core.NewEngine(w.seed, 0), epoch.Options{})
	t.Cleanup(st.Close)
	base := serve(t, st)
	type opJSON struct {
		Op  string   `json:"op"`
		Key uint64   `json:"key"`
		X   float64  `json:"x"`
		Y   float64  `json:"y"`
		Kw  []string `json:"kw,omitempty"`
	}
	for i := 0; i < len(w.churn); i += churnBatch {
		var ops []opJSON
		for _, op := range w.churn[i:min(i+churnBatch, len(w.churn))] {
			ops = append(ops, opJSON{op.Kind, op.Key, op.Loc.X, op.Loc.Y, op.Words})
		}
		var resp struct {
			Results []struct {
				Error string `json:"error"`
			} `json:"results"`
		}
		if status := post(t, base+"/objects", map[string]any{"ops": ops}, &resp); status != http.StatusOK {
			t.Fatalf("POST /objects: status %d", status)
		}
		for j, r := range resp.Results {
			if r.Error != "" {
				t.Fatalf("churn op %d rejected: %s", i+j, r.Error)
			}
		}
	}
	if err := st.WaitIdle(context.Background()); err != nil {
		t.Fatal(err)
	}
	g := st.Pin()
	defer g.Unpin()
	if g.Eng.DS.Len() != w.objs.Len() {
		t.Fatalf("live server holds %d objects, the store %d", g.Eng.DS.Len(), w.objs.Len())
	}
	for i := range w.objs.Objects {
		id := dataset.ObjectID(i)
		if g.Eng.DS.Object(id).Loc != w.objs.Object(id).Loc || !slices.Equal(words(g.Eng.DS, id), words(w.objs, id)) {
			t.Fatalf("object %d: live server and store disagree", i)
		}
	}
	return base
}

// servePeers starts the -peers coordinator — engine servers over a grid
// partition of the world, fronted by a server over a router of HTTP
// backends — and returns its URL. Its members carry shard-local ids.
func servePeers(t *testing.T, w *world) string {
	shards, err := shard.Grid().Partition(w.objs, 3)
	if err != nil {
		t.Fatal(err)
	}
	var backends []shard.Backend
	for _, sh := range shards {
		peer := serve(t, core.NewEngine(sh.DS, 0))
		backends = append(backends, shard.NewHTTPBackend(&client.Client{Base: peer, MaxRetries: -1}))
	}
	return serve(t, &shard.Router{Backends: backends})
}

// wireAnswer is the /query body and a /batch item, as far as the checker
// reads them.
type wireAnswer struct {
	Cost     float64 `json:"cost"`
	CostKind string  `json:"costKind"`
	Method   string  `json:"method"`
	Objects  []struct {
		ID       uint32   `json:"id"`
		X        float64  `json:"x"`
		Y        float64  `json:"y"`
		Keywords []string `json:"keywords"`
	} `json:"objects"`
	Degraded bool   `json:"degraded"`
	Error    string `json:"error"`
}

func (a wireAnswer) answer() answer {
	out := answer{cost: a.Cost, degraded: a.Degraded}
	for _, o := range a.Objects {
		out.members = append(out.members, member{dataset.ObjectID(o.ID), geo.Point{X: o.X, Y: o.Y}, o.Keywords})
	}
	return out
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// statusClass maps a non-200 status onto the error classes.
func statusClass(status int) string {
	switch status {
	case http.StatusBadRequest:
		return invalid
	case http.StatusUnprocessableEntity:
		return infeasible
	}
	return fmt.Sprintf("status %d", status)
}

// itemClass maps a /batch item's error onto the error classes: the
// item-level forms of 400 and 422.
func itemClass(msg string) string {
	switch {
	case msg == "":
		return ok
	case msg == "query keywords cannot be covered":
		return infeasible
	case strings.HasPrefix(msg, "unknown keywords: "), strings.HasPrefix(msg, core.ErrTooManyKeywords.Error()):
		return invalid
	}
	return msg
}

func httpQuery(base string) serveFunc {
	return func(t *testing.T, qs []query, cost core.CostKind, m core.Method) []answer {
		out := make([]answer, len(qs))
		for i, q := range qs {
			v := url.Values{"x": {num(q.loc.X)}, "y": {num(q.loc.Y)}, "kw": {strings.Join(q.words, ",")},
				"cost": {cost.String()}, "method": {httpMethods[m]}}
			resp, err := http.Get(base + "/query?" + v.Encode())
			if err != nil {
				t.Fatal(err)
			}
			var a wireAnswer
			if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
				t.Fatalf("GET /query: %v", err)
			}
			resp.Body.Close()
			if out[i] = a.answer(); resp.StatusCode != http.StatusOK {
				out[i] = answer{class: statusClass(resp.StatusCode)}
			} else if a.CostKind != cost.String() || a.Method != m.String() {
				t.Errorf("/query labels its %v/%v answer %s/%s", cost, m, a.CostKind, a.Method)
			}
		}
		return out
	}
}

// httpBatch sends qs as one POST /batch. The body is written by hand:
// a non-finite coordinate has no JSON spelling, and the server must
// reject the text a client would send for it.
func httpBatch(base string) serveFunc {
	return func(t *testing.T, qs []query, cost core.CostKind, m core.Method) []answer {
		var body bytes.Buffer
		fmt.Fprintf(&body, `{"cost":%q,"method":%q,"queries":[`, cost, httpMethods[m])
		for i, q := range qs {
			kw, _ := json.Marshal(q.words) // a []string always encodes
			if i > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, `{"x":%s,"y":%s,"kw":%s}`, num(q.loc.X), num(q.loc.Y), kw)
		}
		body.WriteString("]}")
		var resp struct {
			Results []wireAnswer `json:"results"`
		}
		status := post(t, base+"/batch", json.RawMessage(body.Bytes()), &resp)
		out := make([]answer, len(qs))
		for i := range out {
			switch {
			case status != http.StatusOK:
				out[i] = answer{class: statusClass(status)}
			default:
				out[i] = resp.Results[i].answer()
				out[i].class = itemClass(resp.Results[i].Error)
			}
		}
		return out
	}
}

// batchAsQuery answers through the /batch of the server at base and
// holds every item to that server's /query answer: a /batch item is the
// answer /query gives, to the cost bits and the members.
func batchAsQuery(base string) serveFunc {
	batch, single := httpBatch(base), httpQuery(base)
	return func(t *testing.T, qs []query, cost core.CostKind, m core.Method) []answer {
		got, want := batch(t, qs, cost, m), single(t, qs, cost, m)
		for i := range got {
			if math.Float64bits(got[i].cost) != math.Float64bits(want[i].cost) || !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%v/%v %q: /batch item %+v, /query %+v", cost, m, qs[i].words, got[i], want[i])
			}
		}
		return got
	}
}

// post sends body (JSON-encoded unless it is raw) and decodes a 200
// reply into out, returning the status.
func post(t *testing.T, u string, body any, out any) int {
	t.Helper()
	raw, isRaw := body.(json.RawMessage)
	if !isRaw {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// adversarialRows are malformed queries, each with the class an engine
// server (/query and /batch over an engine, /query over a store) and a
// coordinator (a server over the in-process router or HTTP peers) must
// answer it with. invalid is a 400, or on /batch an item
// error when the batch itself parses; a non-finite coordinate has no
// JSON spelling, so there the whole batch is a 400. A row with class ok
// is checked as the base query it rewrites.
var adversarialRows = []struct {
	name          string
	rewrite       func(w *world, q query) query
	engine, coord string
}{
	{"65-keywords", func(w *world, q query) query {
		q.words = nil
		for _, word := range w.objs.Vocab.Words() {
			if _, known := w.objs.Vocab.Lookup(word); known && len(q.words) < 65 {
				q.words = append(q.words, word)
			}
		}
		return q
	}, invalid, invalid},
	{"nan-x", func(_ *world, q query) query { q.loc.X = math.NaN(); return q }, invalid, invalid},
	{"inf-y", func(_ *world, q query) query { q.loc.Y = math.Inf(1); return q }, invalid, invalid},
	{"blank-entries", func(_ *world, q query) query {
		q.words = append([]string{" ", ""}, append(slices.Clone(q.words), " ")...)
		return q
	}, ok, ok},
	{"unknown-word", func(_ *world, q query) query {
		q.words = append(slices.Clone(q.words), "no-such-word")
		return q
	}, invalid, infeasible},
}

// adversarial sends each adversarial row, rewritten from the world's
// first query, to path p under MaxSum-Exact.
func (w *world) adversarial(t *testing.T, p *path, serve serveFunc) {
	t.Helper()
	for _, row := range adversarialRows {
		q := row.rewrite(w, w.queries[0])
		want := row.engine
		if p.coord {
			want = row.coord
		}
		if row.name == "65-keywords" && len(q.words) != 65 {
			t.Fatalf("the world knows only %d words", len(q.words))
		}
		got := serve(t, []query{q}, core.MaxSum, core.OwnerExact)[0]
		if want == ok {
			w.check(t, p, q, core.MaxSum, core.OwnerExact, got)
		} else if got.class != want {
			t.Errorf("%s %s: error class %q, want %q", p.name, row.name, got.class, want)
		}
	}
}
