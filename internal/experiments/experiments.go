// Package experiments reproduces the paper's evaluation (§6 of the SIGMOD
// 2013 paper) and this repository's extension and ablation tables. Table
// holds the one definition of every experiment: cmd/coskq-bench prints
// it in the paper's layout and the root benchmarks time the same cases.
//
// Experiment ids (see DESIGN.md §5):
//
//	T1      dataset statistics table
//	E1, E2  effect of |q.ψ| on the Hotel profile (MaxSum, Dia)
//	E3, E4  effect of |q.ψ| on the GN and Web profiles
//	E5, E6  effect of average |o.ψ| (augmented Hotel; MaxSum, Dia)
//	E7, E8  scalability in |O| (augmented GN; MaxSum, Dia)
//	X1      extension costs Sum, MinMax and SumMax (Hotel)
//	X2      scatter-gather trace overhead (Hotel, 4 shards)
//	A1      pruning ablations of MaxSum-Exact (Hotel, |q.ψ| = 9)
//	A2      keyword NN: IR-tree walk vs posting-list scan
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/trace"
)

// Options configures a run of the experiment suite.
type Options struct {
	// Queries per parameter setting. The paper uses 500; the default here
	// is 100 (0 means default).
	Queries int
	// Seed drives dataset generation and query workloads.
	Seed int64
	// Scale shrinks the GN and Web profiles for laptop-scale runs
	// (0 means 0.02: GN ≈ 37k objects, Web ≈ 11.6k).
	Scale float64
	// Full selects the paper-size scalability sweep (2M–10M objects on
	// the full GN profile) instead of the default 50k–800k.
	Full bool
	// NodeBudget caps exact-search effort per query; queries exceeding it
	// count as DNF, mirroring the paper's "did not finish" entries
	// (0 means 20 million nodes).
	NodeBudget int
	// Out receives the report (required to print).
	Out io.Writer
	// Metrics, when non-nil, is attached to every engine the suite
	// builds, so one run accumulates the same latency/effort histograms
	// the server exposes on /metrics (coskq-bench -metrics prints them).
	Metrics *core.EngineMetrics
	// SlowLog, when non-nil, receives a full execution trace for every
	// query the sweeps run, retaining the slowest (coskq-bench -trace
	// prints them after the run). Tracing every execution costs a few
	// percent; leave nil for timing-faithful runs.
	SlowLog *trace.SlowLog
	// NNCache, when positive, enables each engine's cross-query
	// keyword-NN cache with this capacity (coskq-bench -nn-cache).
	// Answers are unaffected; only repeated NN work is.
	NNCache int
}

// newEngine builds an engine for one experiment dataset with the suite's
// metrics sink, cache and node budget attached.
func (o Options) newEngine(ds *dataset.Dataset) *core.Engine {
	eng := core.NewEngine(ds, 0)
	eng.Metrics = o.Metrics
	eng.EnableNNCache(o.NNCache)
	eng.NodeBudget = o.NodeBudget
	return eng
}

func (o Options) withDefaults() Options {
	if o.Queries == 0 {
		o.Queries = 100
	}
	if o.Scale == 0 {
		o.Scale = 0.02
	}
	if o.NodeBudget == 0 {
		o.NodeBudget = 20_000_000
	}
	return o
}

// Algo is one algorithm column of a sweep. Ratios of the approximate
// columns are taken against the owner-driven exact search, which the
// paper proves optimal and this repository tests against a brute-force
// oracle.
type Algo struct {
	Name   string
	Method core.Method
	Exact  bool
}

// Setting is one row of a sweep.
type Setting struct {
	Label string
	// KW is |q.ψ| of every query of the row; QuerySeed is added to
	// Options.Seed to seed the row's query generator.
	KW        int
	QuerySeed int64
	// AvgKW, when positive, raises the base dataset's average |o.ψ| to
	// this value (datagen.AugmentKeywords, seeded Options.Seed+AvgKW).
	// Objects, when positive, grows the base to this many objects
	// (datagen.AugmentToN, seeded Options.Seed+Objects). Otherwise the
	// row runs on the base dataset.
	AvgKW   float64
	Objects int
	// Ablation switches pruning rules of the exact search off.
	Ablation core.Ablation
}

// Experiment is one entry of Table. A sweep (E1–E8, X1, A1) is data: a
// base dataset, costs, a grid of settings and algorithm columns, which
// one runner answers and one printer lays out. T1, X2 and A2 are small
// functions instead.
type Experiment struct {
	ID string
	// Title follows the id in the banner. In a sweep, {cost}, {data},
	// {objects} and {queries} stand for the table's cost, the base
	// dataset's name and size, and Options.Queries.
	Title string
	// Func, when set, is the whole experiment; the sweep fields are unused.
	Func func(Options)

	Data func(Options) *dataset.Dataset
	// Costs: each cost is one table of its own, or a block of rows of
	// the one table when Compact.
	Costs []core.CostKind
	Axis  string // the row labels' column header
	Grid  []Setting
	// FullGrid replaces Grid under Options.Full.
	FullGrid []Setting
	// Algos gives a table's columns. The first is the owner-driven exact
	// search, the reference of every ratio.
	Algos func(core.CostKind) []Algo
	// Compact prints each row on one line: cost, label, every column's
	// time, then the approximate column's ratio and %optimal.
	Compact bool
}

// Table is every experiment, in the order "all" runs them.
var Table = []Experiment{
	{ID: "T1", Title: "dataset statistics (synthetic profiles calibrated to the paper)", Func: t1},
	qkwSweep("E1", hotel, core.MaxSum),
	qkwSweep("E2", hotel, core.Dia),
	qkwSweep("E3", gn, core.MaxSum, core.Dia),
	qkwSweep("E4", web, core.MaxSum, core.Dia),
	avgKWSweep("E5", core.MaxSum),
	avgKWSweep("E6", core.Dia),
	scaleSweep("E7", core.MaxSum),
	scaleSweep("E8", core.Dia),
	{
		ID:    "X1",
		Title: "extension costs on Hotel ({queries} queries/setting)",
		Data:  hotel, Costs: []core.CostKind{core.Sum, core.MinMax, core.SumMax},
		Axis: "|q.ψ|", Grid: kwGrid(13, 3, 6, 9),
		Algos: func(core.CostKind) []Algo {
			return []Algo{{"exact", core.OwnerExact, true}, {"approx", core.OwnerAppro, false}}
		},
		Compact: true,
	},
	{ID: "X2", Title: "scatter-gather trace overhead, Hotel, 4 subtree shards ({queries} queries/setting)", Func: x2},
	{
		ID:    "A1",
		Title: "pruning ablations of the exact search on cost {cost} (Hotel, |q.ψ|=9, {queries} queries/setting)",
		Data:  hotel, Costs: []core.CostKind{core.MaxSum},
		Axis: "variant",
		Grid: []Setting{
			{Label: "full", KW: 9, QuerySeed: 9},
			{Label: "no-owner-ring", KW: 9, QuerySeed: 9, Ablation: core.Ablation{NoOwnerRing: true}},
			{Label: "no-incumbent-break", KW: 9, QuerySeed: 9, Ablation: core.Ablation{NoIncumbentBreak: true}},
			{Label: "no-pair-prune", KW: 9, QuerySeed: 9, Ablation: core.Ablation{NoPairPrune: true}},
		},
		Algos: func(cost core.CostKind) []Algo { return paperAlgos(cost)[:1] },
	},
	{ID: "A2", Title: "keyword NN, IR-tree walk vs posting-list scan ({queries} points × 100 keywords per row)", Func: a2},
}

func hotel(o Options) *dataset.Dataset { return datagen.Generate(datagen.ProfileHotel(o.Seed)) }
func gn(o Options) *dataset.Dataset    { return datagen.Generate(datagen.ProfileGN(o.Seed, o.Scale)) }
func web(o Options) *dataset.Dataset   { return datagen.Generate(datagen.ProfileWeb(o.Seed, o.Scale)) }

// paperAlgos is the paper's line-up for one cost: the owner-driven exact
// and approximation algorithms against the Cao baselines (under Dia, the
// paper's starred adaptations). The owner-driven exact comes first.
func paperAlgos(cost core.CostKind) []Algo {
	exactName, approName := "MaxSum-Exact", "MaxSum-Appro"
	suffix := ""
	if cost == core.Dia {
		exactName, approName = "Dia-Exact", "Dia-Appro"
		suffix = "*"
	}
	return []Algo{
		{exactName, core.OwnerExact, true},
		{"Cao-Exact" + suffix, core.CaoExact, true},
		{approName, core.OwnerAppro, false},
		{"Cao-Appro1" + suffix, core.CaoAppro1, false},
		{"Cao-Appro2" + suffix, core.CaoAppro2, false},
	}
}

// kwGrid is a |q.ψ| axis whose row k draws queries from seed k·seedMul.
func kwGrid(seedMul int64, ks ...int) []Setting {
	out := make([]Setting, len(ks))
	for i, k := range ks {
		out[i] = Setting{Label: strconv.Itoa(k), KW: k, QuerySeed: int64(k) * seedMul}
	}
	return out
}

// qkwSweep is E1–E4: vary |q.ψ| over one profile.
func qkwSweep(id string, data func(Options) *dataset.Dataset, costs ...core.CostKind) Experiment {
	return Experiment{
		ID:    id,
		Title: "effect of |q.ψ| on cost {cost} ({data}, {objects} objects, {queries} queries/setting)",
		Data:  data, Costs: costs,
		Axis: "|q.ψ|", Grid: kwGrid(1, 3, 6, 9, 12, 15),
		Algos: paperAlgos,
	}
}

// avgKWSweep is E5/E6: Hotel augmented to a rising average |o.ψ| at
// |q.ψ| = 10 (the TKDE restatement of the experiment). Hotel's own
// average is about 4, so that row is the base itself. The node budget
// turns baseline blowups into DNF counts, as the paper reports for
// Cao-Exact at |o.ψ| ≥ 24.
func avgKWSweep(id string, cost core.CostKind) Experiment {
	var grid []Setting
	for _, avg := range []float64{4, 8, 16, 24, 32, 40} {
		s := Setting{Label: fmt.Sprintf("%.0f", avg), KW: 10, QuerySeed: int64(avg) * 7}
		if avg > 4 {
			s.AvgKW = avg
		}
		grid = append(grid, s)
	}
	return Experiment{
		ID:    id,
		Title: "effect of avg |o.ψ| on cost {cost} (Hotel, |q.ψ|=10, {queries} queries/setting)",
		Data:  hotel, Costs: []core.CostKind{cost},
		Axis: "avg|o.ψ|", Grid: grid,
		Algos: paperAlgos,
	}
}

// scaleSweep is E7/E8: GN augmented to rising object counts at
// |q.ψ| = 10. The paper-size grid grows the full GN profile.
func scaleSweep(id string, cost core.CostKind) Experiment {
	sizes := func(ns ...int) []Setting {
		out := make([]Setting, len(ns))
		for i, n := range ns {
			out[i] = Setting{Label: fmt.Sprintf("%dk", n/1000), KW: 10, QuerySeed: int64(n) * 3, Objects: n}
		}
		return out
	}
	return Experiment{
		ID:    id,
		Title: "scalability in |O| on cost {cost} (GN-augmented, |q.ψ|=10, {queries} queries/setting)",
		Data: func(o Options) *dataset.Dataset {
			if o.Full {
				o.Scale = 1
			}
			return gn(o)
		},
		Costs: []core.CostKind{cost},
		Axis:  "|O|", Grid: sizes(50_000, 100_000, 200_000, 400_000, 800_000),
		FullGrid: sizes(2_000_000, 4_000_000, 6_000_000, 8_000_000, 10_000_000),
		Algos:    paperAlgos,
	}
}

// Case is one row of a sweep made concrete: the engine and the query
// batch every column answers under one cost.
type Case struct {
	ID      string // the table's id: the experiment's, plus "(cost)" when it prints one table per cost
	Setting Setting
	Cost    core.CostKind
	Algos   []Algo
	Engine  *core.Engine
	Queries []core.Query
	Build   time.Duration // the engine's index build
}

// Cases builds each row of a sweep in order and hands it to fn. The base
// dataset's engine serves every row that does not derive its own, and a
// derived engine is dropped once its row is done.
func (e Experiment) Cases(opt Options, fn func(Case)) {
	opt = opt.withDefaults()
	grid := e.Grid
	if opt.Full && e.FullGrid != nil {
		grid = e.FullGrid
	}
	base := e.Data(opt)
	var baseEng *core.Engine
	var baseBuild time.Duration
	for _, cost := range e.Costs {
		id := e.ID
		if len(e.Costs) > 1 && !e.Compact {
			id = fmt.Sprintf("%s(%v)", e.ID, cost)
		}
		for _, s := range grid {
			c := Case{ID: id, Setting: s, Cost: cost, Algos: e.Algos(cost)}
			switch {
			case s.AvgKW > 0:
				c.Engine, c.Build = build(opt, datagen.AugmentKeywords(base, s.AvgKW, opt.Seed+int64(s.AvgKW)))
			case s.Objects > 0:
				c.Engine, c.Build = build(opt, datagen.AugmentToN(base, s.Objects, opt.Seed+int64(s.Objects)))
			default:
				if baseEng == nil {
					baseEng, baseBuild = build(opt, base)
				}
				c.Engine, c.Build = baseEng, baseBuild
			}
			c.Engine.Ablation = s.Ablation
			c.Queries = genQueries(c.Engine, opt.Queries, s.KW, opt.Seed+s.QuerySeed)
			fn(c)
		}
	}
}

func build(opt Options, ds *dataset.Dataset) (*core.Engine, time.Duration) {
	start := time.Now()
	eng := opt.newEngine(ds)
	return eng, time.Since(start)
}

// genQueries draws n feasible queries with |q.ψ| = k from the paper's
// [0, 40) frequency percentile band.
func genQueries(eng *core.Engine, n, k int, seed int64) []core.Query {
	g := datagen.NewQueryGen(eng.DS, eng.Inv, 0, 40, seed)
	out := make([]core.Query, 0, n)
	for len(out) < n {
		loc, kws := g.Next(k)
		out = append(out, core.Query{Loc: loc, Keywords: kws})
	}
	return out
}

// samples holds one column's measurements of a row.
type samples []float64

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s samples) max() float64 {
	m := s[0]
	for _, v := range s[1:] {
		m = max(m, v)
	}
	return m
}

// fractionAtMost is the share of samples ≤ v; the paper reports the
// share of queries answered optimally (ratio 1).
func (s samples) fractionAtMost(v float64) float64 {
	n := 0
	for _, x := range s {
		if x <= v {
			n++
		}
	}
	return float64(n) / float64(len(s))
}

// cell is one (row, column) measurement: seconds per answered query,
// ratios against the exact optimum, and executions over the budget.
type cell struct {
	time, ratio samples
	dnf         int
}

// runSetting answers the row's queries in every column. The owner-driven
// exact search (always the first column) runs first and is the ratio
// reference; with a slow log, every execution is traced into it.
func runSetting(c Case, slow *trace.SlowLog) []cell {
	cells := make([]cell, len(c.Algos))
	solve := func(q core.Query, a Algo) (core.Result, error) {
		if slow == nil {
			return c.Engine.Solve(q, c.Cost, a.Method)
		}
		tr := trace.New(a.Name)
		start := time.Now()
		res, err := c.Engine.SolveCtx(trace.NewContext(context.Background(), tr), q, c.Cost, a.Method)
		elapsed := time.Since(start)
		tr.Finish()
		e := trace.Entry{
			Time:      time.Now(),
			Query:     fmt.Sprintf("%s cost=%v |q.ψ|=%d", a.Name, c.Cost, q.Keywords.Len()),
			ElapsedMs: float64(elapsed.Microseconds()) / 1000,
			Trace:     tr.Export(),
		}
		if err != nil {
			e.Err = err.Error()
		}
		slow.Observe(e)
		return res, err
	}

	for _, q := range c.Queries {
		opt, optErr := solve(q, c.Algos[0])
		for i, a := range c.Algos {
			res, err := opt, optErr
			if i > 0 {
				res, err = solve(q, a)
			}
			switch {
			case err == core.ErrInfeasible:
				continue
			case err == core.ErrBudgetExceeded:
				cells[i].dnf++
				continue
			case err != nil:
				panic(fmt.Sprintf("experiments: %s failed: %v", a.Name, err))
			}
			cells[i].time = append(cells[i].time, res.Stats.Elapsed.Seconds())
			if !a.Exact && optErr == nil && opt.Cost > 0 {
				cells[i].ratio = append(cells[i].ratio, res.Cost/opt.Cost)
			}
		}
	}
	return cells
}

// Print runs the experiment and writes its tables to opt.Out.
func (e Experiment) Print(opt Options) {
	opt = opt.withDefaults()
	w := opt.Out
	title := func(c Case) string {
		r := []string{"{queries}", strconv.Itoa(opt.Queries)}
		if c.Engine != nil {
			r = append(r, "{cost}", c.Cost.String(), "{data}", c.Engine.DS.Name, "{objects}", strconv.Itoa(c.Engine.DS.Len()))
		}
		return strings.NewReplacer(r...).Replace(e.Title)
	}
	if e.Func != nil {
		header(w, e.ID, title(Case{}))
		e.Func(opt)
		return
	}
	width := 12
	for _, s := range e.Grid {
		width = max(width, len(s.Label))
	}
	label := func(cost, row string) string {
		if e.Compact {
			return fmt.Sprintf("%-8s %-6s", cost, row)
		}
		return fmt.Sprintf("%-*s", width, row)
	}
	table := ""
	e.Cases(opt, func(c Case) {
		if c.ID != table {
			table = c.ID
			header(w, c.ID, title(c))
			fmt.Fprint(w, label("cost", e.Axis))
			for _, a := range c.Algos {
				fmt.Fprintf(w, " %14s", a.Name)
			}
			if e.Compact {
				fmt.Fprintf(w, " %18s %10s", "ratio avg/max", "%optimal")
			}
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, label(c.Cost.String(), c.Setting.Label))
		printRow(w, e.Compact, width, c, runSetting(c, opt.SlowLog))
	})
}

// printRow prints a row's time cells, then the approximate columns'
// ratio avg/max and %optimal: on the same line when compact, else as two
// lines of their own. A scalability row adds its index build.
func printRow(w io.Writer, compact bool, width int, c Case, cells []cell) {
	ratio := func(c cell) string {
		if len(c.ratio) == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f/%.3f", c.ratio.mean(), c.ratio.max())
	}
	optimal := func(c cell) string {
		if len(c.ratio) == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", 100*c.ratio.fractionAtMost(1+1e-9))
	}
	for _, cl := range cells {
		entry := "-"
		if len(cl.time) > 0 {
			entry = fmtDuration(time.Duration(cl.time.mean() * float64(time.Second)))
		}
		if cl.dnf > 0 {
			entry += fmt.Sprintf("(%dDNF)", cl.dnf)
		}
		fmt.Fprintf(w, " %14s", entry)
	}
	switch {
	case compact:
		for i, a := range c.Algos {
			if !a.Exact {
				fmt.Fprintf(w, " %18s %10s", ratio(cells[i]), optimal(cells[i]))
			}
		}
	case slices.ContainsFunc(c.Algos, func(a Algo) bool { return !a.Exact }):
		for _, line := range []struct {
			label string
			cell  func(cell) string
		}{{"  ratio", ratio}, {"  %optimal", optimal}} {
			fmt.Fprintf(w, "\n%-*s", width, line.label)
			for i, a := range c.Algos {
				entry := "-"
				if !a.Exact {
					entry = line.cell(cells[i])
				}
				fmt.Fprintf(w, " %14s", entry)
			}
		}
	}
	fmt.Fprintln(w)
	if c.Setting.Objects > 0 {
		ts := c.Engine.Tree.Stats()
		fmt.Fprintf(w, "%-*s index build %s (%d nodes, height %d, %d keyword-union entries)\n",
			width, "", fmtDuration(c.Build), ts.Nodes, ts.Height, ts.KeywordUnions)
	}
}

// header prints the per-table banner.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", id, title)
}

// fmtDuration renders a time cell the way the paper's log-scale runtime
// plots are read: seconds with adaptive precision.
func fmtDuration(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.3gms", s*1e3)
	default:
		return fmt.Sprintf("%.3gµs", s*1e6)
	}
}

// Run prints one experiment by id (any case), or every one for "all".
func Run(id string, opt Options) error {
	all, found := strings.EqualFold(id, "all"), false
	for _, e := range Table {
		if all || strings.EqualFold(id, e.ID) {
			e.Print(opt)
			found = true
		}
	}
	if !found {
		return fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return nil
}
