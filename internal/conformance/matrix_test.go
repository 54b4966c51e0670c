// Package conformance holds the one matrix every query-serving path is
// checked by. Each row is a world: a seeded datagen dataset and a seeded
// churn stream. The live paths reach the world by applying the churn to
// an epoch store; every other path is built over the objects that store
// ends with. Each path answers the row's queries under every cost and
// every method it serves, and one checker compares each answer with one
// oracle: Brute over a fresh engine on the same objects where Brute
// finishes, OwnerExact elsewhere (the rows where Brute does finish check
// OwnerExact against it). Besides the datagen queries, each world asks
// for the keywords the churn last edited into objects, at those objects.
//
// On top of the workload rows, metamorphic rows move the clustered world
// (translation, uniform scale, a permutation of object ids) or its
// queries (a duplicated keyword) and hold every path to the base world's
// oracle, and adversarial rows send the HTTP paths malformed queries.
//
// The package has only test files; its sizes are fixed in the tables.
package conformance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/epoch"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

// workload is a seeded datagen world and the |q.ψ| of its queries,
// queriesPerK of each.
type workload struct {
	cfg datagen.Config
	ks  []int
	// large rows run on the in-process paths only, with OwnerExact as
	// the oracle.
	large bool
	// variants are the metamorphic rows derived from this workload.
	variants []variant
}

const (
	queriesPerK = 3
	editQueries = 3
	churnOps    = 48
	churnBatch  = 16
)

var workloads = []workload{
	{
		cfg:      datagen.Config{Name: "clustered", NumObjects: 220, VocabSize: 80, AvgKeywords: 3, Clusters: 6, Seed: 101},
		ks:       []int{1, 2, 3},
		variants: variants,
	},
	{
		cfg: datagen.Config{Name: "uniform", NumObjects: 140, VocabSize: 70, AvgKeywords: 2.5, Seed: 202},
		ks:  []int{2, 4},
	},
	{
		cfg: datagen.Config{Name: "topical", NumObjects: 260, VocabSize: 90, AvgKeywords: 4, Clusters: 10, Topics: 5, Seed: 303},
		ks:  []int{3},
	},
	{
		cfg:   datagen.Config{Name: "large", NumObjects: 3000, VocabSize: 150, AvgKeywords: 4, Clusters: 20, Seed: 404},
		ks:    []int{3, 5},
		large: true,
	},
}

// variant is a metamorphic row: a transformation of a base world and its
// queries under which every optimum is known from the base world's
// oracle — unchanged, or multiplied by factor.
type variant struct {
	name    string
	move    func(geo.Point) geo.Point // applied to every location; nil keeps them
	factor  float64                   // what every cost is multiplied by
	permute bool                      // seed objects in a shuffled order
	dup     bool                      // each query repeats its first keyword
}

var variants = []variant{
	{name: "translate", move: func(p geo.Point) geo.Point { return geo.Point{X: p.X + 3217.5, Y: p.Y - 1234.25} }, factor: 1},
	{name: "scale", move: func(p geo.Point) geo.Point { return geo.Point{X: p.X * 3.7, Y: p.Y * 3.7} }, factor: 3.7},
	{name: "permute", permute: true, factor: 1},
	{name: "dup-keyword", dup: true, factor: 1},
}

var costs = []core.CostKind{core.MaxSum, core.Dia, core.Sum, core.MinMax, core.SumMax}

// methodsFor lists the methods that answer cost in-process; the HTTP
// paths serve those of them httpMethods names.
func methodsFor(cost core.CostKind) []core.Method {
	switch cost {
	case core.MaxSum, core.Dia:
		return []core.Method{core.OwnerExact, core.PairsExact, core.CaoExact, core.OwnerAppro, core.CaoAppro1, core.CaoAppro2, core.Brute}
	case core.Sum:
		return []core.Method{core.OwnerExact, core.CaoExact, core.OwnerAppro, core.Brute}
	}
	return []core.Method{core.OwnerExact, core.OwnerAppro, core.Brute}
}

// query is one question a row asks: a location and keyword strings, as
// a client sends them. of indexes the base query whose oracle answers it.
type query struct {
	loc   geo.Point
	words []string
	of    int
}

// Error classes an answer can carry; any other failure is reported by
// its own text, which matches no oracle.
const (
	ok         = ""
	invalid    = "invalid"    // rejected as malformed: 400, or a batch item's own error
	infeasible = "infeasible" // no set covers the keywords: 422
)

func classOf(err error) string {
	switch {
	case err == nil:
		return ok
	case errors.Is(err, core.ErrInfeasible):
		return infeasible
	case errors.Is(err, core.ErrTooManyKeywords), errors.Is(err, core.ErrUnsupported):
		return invalid
	}
	return err.Error()
}

// answer is what a path returned for one query, in the form every path
// can report: the members' locations and keyword strings, and their ids
// (global ids on the paths that have them).
type answer struct {
	class    string
	cost     float64
	members  []member
	degraded bool
}

type member struct {
	id    dataset.ObjectID
	loc   geo.Point
	words []string
}

// outcome is the oracle's answer to one (query, cost).
type outcome struct {
	class string
	cost  float64
}

// world is one row, built: the store that reached it, the objects every
// path serves, the reference engine over them, and the row's queries.
type world struct {
	large   bool
	seed    *dataset.Dataset
	churn   []datagen.ChurnOp
	objs    *dataset.Dataset
	ref     *core.Engine
	live    *epoch.Generation
	queries []query
	// oracle holds the base world's outcome per (base query, cost),
	// already multiplied by the row's factor.
	oracle map[[2]int]outcome
	// sets holds the reference engine's canonical set per (base query,
	// cost, exact method): what a path with global ids must return.
	sets map[cellKey][]dataset.ObjectID
}

type cellKey struct {
	q      int
	cost   core.CostKind
	method core.Method
}

// bruteFinishes reports whether Brute answers q under cost in time: not
// on large rows, and under MinMax (every cover with every anchor) only
// up to two keywords.
func (w *world) bruteFinishes(q query, cost core.CostKind) bool {
	return !w.large && (cost != core.MinMax || len(q.words) <= 2)
}

// resolve maps q's words to the keyword set of the world's vocabulary.
func (w *world) resolve(t *testing.T, q query) core.Query {
	t.Helper()
	var set kwds.Set
	for _, word := range q.words {
		id, found := w.objs.Vocab.Lookup(word)
		if !found {
			t.Fatalf("query word %q unknown to the world", word)
		}
		set = set.Union(kwds.NewSet(id))
	}
	return core.Query{Loc: q.loc, Keywords: set}
}

// words returns the keyword strings of object id in ds.
func words(ds *dataset.Dataset, id dataset.ObjectID) []string {
	o := ds.Object(id)
	out := make([]string, o.Keywords.Len())
	for i, k := range o.Keywords {
		out[i] = ds.Vocab.Word(k)
	}
	return out
}

// membersOf renders an in-process answer set of ds.
func membersOf(ds *dataset.Dataset, set []dataset.ObjectID) []member {
	out := make([]member, len(set))
	for i, id := range set {
		out[i] = member{id: id, loc: ds.Object(id).Loc, words: words(ds, id)}
	}
	return out
}

// newWorld builds workload wl's base world (base nil) or its variant v
// over the already-built base world.
func newWorld(t *testing.T, wl workload, v variant, base *world) *world {
	t.Helper()
	w := &world{large: wl.large}
	if base == nil {
		w.seed = datagen.Generate(wl.cfg)
		w.churn = datagen.NewChurnStream(datagen.ChurnConfig{
			Seed: wl.cfg.Seed, Ops: churnOps, SeedKeys: w.seed.Len(), Vocab: wl.cfg.VocabSize,
		}).All()
	} else {
		w.seed, w.churn = v.apply(base.seed, base.churn)
	}

	// Reach the world through the store; its last generation's objects
	// are what every path serves. This store never re-packs, so its index
	// is the path-copied one; the live HTTP server's re-packs as deployed.
	st := epoch.New(core.NewEngine(w.seed, 0), epoch.Options{CompactFrac: -1})
	t.Cleanup(st.Close)
	for i := 0; i < len(w.churn); i += churnBatch {
		ops := make([]epoch.Op, 0, churnBatch)
		for _, op := range w.churn[i:min(i+churnBatch, len(w.churn))] {
			ops = append(ops, epoch.Op{Kind: epoch.OpKind(op.Kind), Key: op.Key, HasKey: true, Loc: op.Loc, Words: op.Words})
		}
		statuses, err := st.ApplyBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		for j, s := range statuses {
			if s.Err != "" {
				t.Fatalf("churn op %d rejected: %s", i+j, s.Err)
			}
		}
	}
	if err := st.WaitIdle(context.Background()); err != nil {
		t.Fatal(err)
	}
	w.live = st.Pin()
	t.Cleanup(w.live.Unpin)
	w.objs = w.live.Eng.DS
	w.ref = core.NewEngine(w.objs, 0)

	if base == nil {
		for _, k := range wl.ks {
			g := datagen.NewQueryGen(w.objs, w.ref.Inv, 0, 40, wl.cfg.Seed+int64(100*k))
			for i := 0; i < queriesPerK; i++ {
				loc, set := g.Next(k)
				q := query{loc: loc, of: len(w.queries)}
				for _, id := range set {
					q.words = append(q.words, w.objs.Vocab.Word(id))
				}
				w.queries = append(w.queries, q)
			}
		}
		// Queries at the objects the churn edited last ask for exactly
		// the keywords the edits gave them: an index that lost an edit
		// answers them wrong.
		edited := make(map[uint64]bool)
		for i := len(w.churn) - 1; i >= 0 && len(edited) < editQueries; i-- {
			op := w.churn[i]
			id := slices.Index(w.live.Keys, op.Key)
			if op.Kind != "edit" || id < 0 || edited[op.Key] {
				continue
			}
			edited[op.Key] = true
			o := dataset.ObjectID(id)
			kws := words(w.objs, o)
			w.queries = append(w.queries, query{loc: w.objs.Object(o).Loc, words: kws[:min(len(kws), 3)], of: len(w.queries)})
		}
		w.oracle = make(map[[2]int]outcome)
		for i, q := range w.queries {
			for _, cost := range costs {
				m := core.OwnerExact
				if w.bruteFinishes(q, cost) {
					m = core.Brute
				}
				res, err := w.ref.Solve(w.resolve(t, q), cost, m)
				w.oracle[[2]int{i, int(cost)}] = outcome{classOf(err), res.Cost}
			}
		}
	} else {
		for _, q := range base.queries {
			q.words = slices.Clone(q.words)
			if v.move != nil {
				q.loc = v.move(q.loc)
			}
			if v.dup {
				q.words = append(q.words, q.words[0])
			}
			w.queries = append(w.queries, q)
		}
		w.oracle = make(map[[2]int]outcome, len(base.oracle))
		for k, o := range base.oracle {
			w.oracle[k] = outcome{o.class, o.cost * v.factor}
		}
	}

	w.sets = make(map[cellKey][]dataset.ObjectID)
	for i, q := range w.queries {
		for _, cost := range costs {
			for _, m := range methodsFor(cost) {
				if core.ApproRatioBound(cost, m) != 1 || (m == core.Brute && !w.bruteFinishes(q, cost)) {
					continue
				}
				if res, err := w.ref.Solve(w.resolve(t, q), cost, m); err == nil {
					w.sets[cellKey{i, cost, m}] = res.Set
				}
			}
		}
	}
	return w
}

// apply derives a variant's seed dataset and churn from its base's. The
// vocabulary is interned in the base's order, so keyword ids agree. A
// permutation renumbers the seed objects, and so the store's keys for
// them; the churn's seed-key references follow.
func (v variant) apply(seed *dataset.Dataset, churn []datagen.ChurnOp) (*dataset.Dataset, []datagen.ChurnOp) {
	move := v.move
	if move == nil {
		move = func(p geo.Point) geo.Point { return p }
	}
	order := make([]int, seed.Len())
	for i := range order {
		order[i] = i
	}
	if v.permute {
		order = rand.New(rand.NewSource(int64(seed.Len()))).Perm(seed.Len())
	}
	b := dataset.NewBuilder(seed.Name)
	for _, word := range seed.Vocab.Words() {
		b.Vocab().Intern(word)
	}
	key := make(map[uint64]uint64, len(order))
	for j, i := range order {
		b.Add(move(seed.Objects[i].Loc), words(seed, dataset.ObjectID(i))...)
		key[uint64(i)] = uint64(j)
	}
	out := make([]datagen.ChurnOp, len(churn))
	for i, op := range churn {
		if k, seeded := key[op.Key]; seeded {
			op.Key = k
		}
		op.Loc = move(op.Loc)
		out[i] = op
	}
	return b.Build(), out
}

// near is the floating-point tolerance every cost comparison uses.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// check is the matrix's one checker: it holds p's answer to q under
// (cost, m) to the oracle.
func (w *world) check(t *testing.T, p *path, q query, cost core.CostKind, m core.Method, got answer) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s %v/%v q%d %q: %s", p.name, cost, m, q.of, q.words, fmt.Sprintf(format, args...))
	}
	want := w.oracle[[2]int{q.of, int(cost)}]
	if got.class != want.class {
		fail("error class %q, oracle %q", got.class, want.class)
		return
	}
	if got.class != ok {
		return
	}
	if got.degraded {
		fail("answer flagged degraded")
	}
	covered := make(map[string]bool)
	pts := make([]geo.Point, len(got.members))
	for i, mb := range got.members {
		pts[i] = mb.loc
		for _, word := range mb.words {
			covered[word] = true
		}
	}
	for _, word := range q.words {
		if word = strings.TrimSpace(word); word != "" && !covered[word] {
			fail("members %v do not cover %q", got.members, word)
		}
	}
	if eval := core.EvalPoints(cost, q.loc, pts); !near(got.cost, eval) {
		fail("reported cost %v, members evaluate to %v", got.cost, eval)
	}
	switch bound := core.ApproRatioBound(cost, m); {
	case bound == 1:
		if !near(got.cost, want.cost) {
			fail("cost %v, oracle %v", got.cost, want.cost)
		}
		if p.globalIDs {
			ids := make([]dataset.ObjectID, len(got.members))
			for i, mb := range got.members {
				ids[i] = mb.id
			}
			slices.Sort(ids)
			if ref := w.sets[cellKey{q.of, cost, m}]; !slices.Equal(ids, ref) {
				fail("set %v, engine's %v", ids, ref)
			}
		}
	case got.cost < want.cost && !near(got.cost, want.cost):
		fail("cost %v beats the oracle's %v", got.cost, want.cost)
	case bound > 0 && got.cost > bound*want.cost && !near(got.cost, bound*want.cost):
		fail("cost %v exceeds %.4g × oracle %v", got.cost, bound, want.cost)
	}
}

// TestConformance runs every row on every path that serves it.
func TestConformance(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.cfg.Name, func(t *testing.T) {
			if wl.large && testing.Short() {
				t.Skip("the large row is skipped under -short")
			}
			t.Parallel()
			base := newWorld(t, wl, variant{}, nil)
			base.run(t, true)
			for _, v := range wl.variants {
				t.Run(v.name, func(t *testing.T) {
					t.Parallel()
					newWorld(t, wl, v, base).run(t, false)
				})
			}
		})
	}
}

// run checks every path that serves w, each in its own subtest, and the
// adversarial rows on the HTTP paths of a base world.
func (w *world) run(t *testing.T, adversarial bool) {
	for _, p := range paths {
		if w.large && p.http {
			continue
		}
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			serve := p.build(t, w)
			for _, cost := range costs {
				for _, m := range methodsFor(cost) {
					if _, served := httpMethods[m]; p.http && !served {
						continue
					}
					var qs []query
					for _, q := range w.queries {
						if m != core.Brute || w.bruteFinishes(q, cost) {
							qs = append(qs, q)
						}
					}
					for j, got := range serve(t, qs, cost, m) {
						w.check(t, p, qs[j], cost, m, got)
					}
				}
			}
			if p.http && adversarial {
				w.adversarial(t, p, serve)
			}
		})
	}
}
