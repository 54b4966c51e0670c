// Package core implements the paper's contribution: collective spatial
// keyword query (CoSKQ) processing with the distance owner-driven approach
// of Long, Wong, Wang and Fu (SIGMOD 2013).
//
// Given a query q = (q.λ, q.ψ) over a dataset of geo-textual objects, a
// CoSKQ returns a feasible set S (one covering q.ψ) minimizing a cost
// function. The package provides, for both of the paper's cost functions
// (MaxSum and Dia):
//
//   - the distance owner-driven exact algorithms (MaxSum-Exact, Dia-Exact),
//   - the distance owner-driven approximation algorithms (MaxSum-Appro with
//     ratio 1.375, Dia-Appro with ratio √3),
//   - the Cao et al. (SIGMOD 2011) baselines: Cao-Exact (branch and
//     bound), Cao-Appro1 (the nearest neighbor set, ratio 3) and
//     Cao-Appro2 (iterative owner improvement, ratio 2), plus their Dia
//     adaptations,
//   - a brute-force oracle for testing,
//
// and, as extensions, Cao et al.'s Sum, MinMax and SumMax costs, each an
// exact search on the same owner-driven machinery under its row of the
// cost table (owner.go), and an approximation that is the same search run
// with its proven ratio as slack. Which (cost, method) pairs exist, and
// each one's algorithm and proven ratio, are written once: the cells
// table below, which Solve, ApproRatioBound and SolveAlpha read.
//
// Following the CoSKQ literature, answer sets consist of relevant objects
// only — objects sharing at least one keyword with the query. (For the
// MinMax extension cost this matters: a nearby object contributing no new
// keyword can still lower the cost, and such "anchor" members are
// considered as long as they are relevant.)
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"coskq/internal/dataset"
	"coskq/internal/fault"
	"coskq/internal/geo"
	"coskq/internal/invindex"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
	"coskq/internal/trace"
)

// Query is a collective spatial keyword query: a location and the keyword
// set to cover.
type Query struct {
	Loc      geo.Point
	Keywords kwds.Set
}

// CostKind selects the cost function cost(S) minimized by a CoSKQ.
type CostKind int

const (
	// MaxSum is the paper's primary cost:
	// max_{o∈S} d(o,q) + max_{o1,o2∈S} d(o1,o2)
	// (Cao et al.'s cost_MaxMax with α = 0.5, rescaled by 2).
	MaxSum CostKind = iota
	// Dia is the paper's new cost (a.k.a. cost_MaxMax2): the larger of the
	// two MaxSum components — the diameter of S ∪ {q} under the two owner
	// distances.
	Dia
	// Sum is Cao et al.'s cost_Sum: Σ_{o∈S} d(o,q). Extension scope.
	Sum
	// MinMax is Cao et al.'s cost_MinMax with α = 0.5, rescaled:
	// min_{o∈S} d(o,q) + max_{o1,o2∈S} d(o1,o2). Extension scope.
	MinMax
	// SumMax is Cao et al.'s cost_SumMax with α = 0.5, rescaled:
	// Σ_{o∈S} d(o,q) + max_{o1,o2∈S} d(o1,o2). Cao et al. left its
	// algorithms as future work; solved here with the owner-driven
	// skeleton. Extension scope.
	SumMax
)

// costNames is the name row of each CostKind: the name String prints,
// then the lower-case spellings ParseCost accepts.
var costNames = [...][]string{
	MaxSum: {"MaxSum", "maxsum"},
	Dia:    {"Dia", "dia"},
	Sum:    {"Sum", "sum"},
	MinMax: {"MinMax", "minmax"},
	SumMax: {"SumMax", "summax"},
}

// String implements fmt.Stringer.
func (c CostKind) String() string { return rowName(costNames[:], int(c), "CostKind") }

// Method selects the algorithm used to answer a query.
type Method int

const (
	// OwnerExact is the paper's distance owner-driven exact algorithm
	// (MaxSum-Exact / Dia-Exact depending on the cost).
	OwnerExact Method = iota
	// OwnerAppro is the paper's distance owner-driven approximation
	// (MaxSum-Appro / Dia-Appro). Under the extension costs it is the
	// exact search run at the pair's ratio as slack (cells).
	OwnerAppro
	// CaoExact is the Cao et al. branch-and-bound exact baseline
	// (adapted to Dia when combined with that cost).
	CaoExact
	// CaoAppro1 returns the nearest neighbor set N(q).
	CaoAppro1
	// CaoAppro2 is Cao et al.'s iterative improvement.
	CaoAppro2
	// Brute is the exhaustive oracle; exponential, for tests and tiny
	// inputs only.
	Brute
	// PairsExact is the published pseudocode form of the owner-driven
	// exact search (pairwise distance owners enumerated first). Kept as an
	// independently-derived exact implementation; OwnerExact is usually
	// faster.
	PairsExact
)

// methodNames is the name row of each Method: the name String prints,
// then the lower-case spellings ParseMethod accepts. PairsExact has none.
var methodNames = [...][]string{
	OwnerExact: {"OwnerExact", "exact", "owner-exact"},
	OwnerAppro: {"OwnerAppro", "appro", "owner-appro"},
	CaoExact:   {"Cao-Exact", "cao-exact"},
	CaoAppro1:  {"Cao-Appro1", "cao-appro1"},
	CaoAppro2:  {"Cao-Appro2", "cao-appro2"},
	Brute:      {"Brute", "brute"},
	PairsExact: {"PairsExact"},
}

// The (cost, method) index spans every CostKind and every Method.
const numCosts, numMethods = len(costNames), len(methodNames)

// String implements fmt.Stringer.
func (m Method) String() string { return rowName(methodNames[:], int(m), "Method") }

// ParseCost maps the CLI / HTTP spelling of a cost function (any case) to
// its CostKind.
func ParseCost(s string) (CostKind, error) { return parseRow[CostKind](costNames[:], s, "cost") }

// ParseMethod maps the CLI / HTTP spelling of an algorithm (any case) to
// its Method.
func ParseMethod(s string) (Method, error) { return parseRow[Method](methodNames[:], s, "method") }

// rowName is the name of row i of rows, or typ(i) outside them.
func rowName(rows [][]string, i int, typ string) string {
	if i < 0 || i >= len(rows) {
		return fmt.Sprintf("%s(%d)", typ, i)
	}
	return rows[i][0]
}

// parseRow returns the index of the row of rows spelling s in any case,
// or an error listing each row's first spelling.
func parseRow[T ~int](rows [][]string, s, what string) (T, error) {
	low := strings.ToLower(s)
	for i, row := range rows {
		if slices.Contains(row[1:], low) {
			return T(i), nil
		}
	}
	var want []string
	for _, row := range rows {
		want = append(want, row[1:min(2, len(row))]...)
	}
	last := len(want) - 1
	return 0, fmt.Errorf("unknown %s %q (want %s or %s)", what, s, strings.Join(want[:last], ", "), want[last])
}

// cell is one (cost, method) pair: run answers it under the cost's
// value, and ratio is the approximation ratio it proves for a query of k
// keywords. The zero cell is an unsupported pair; a nil ratio is a pair
// that runs with no proven ratio.
type cell struct {
	run   func(*search, Query, costFn) (Result, error)
	ratio func(k int) float64
}

// cells holds every supported pair. The extension costs approximate by
// running their exact search at the ratio as slack (atRatio).
var cells = [numCosts][numMethods]cell{
	MaxSum: {
		OwnerExact: atRatio((*search).ownerExact, exactRatio),
		OwnerAppro: {(*search).ownerAppro, fixedRatio(1.375)},
		CaoExact:   {(*search).caoExact, exactRatio},
		CaoAppro1:  {(*search).caoAppro1, fixedRatio(3)},
		CaoAppro2:  {(*search).caoAppro2, fixedRatio(2)},
		Brute:      {(*search).bruteForce, exactRatio},
		PairsExact: {(*search).pairsExact, exactRatio},
	},
	Dia: {
		OwnerExact: atRatio((*search).ownerExact, exactRatio),
		OwnerAppro: {(*search).ownerAppro, fixedRatio(math.Sqrt(3))},
		CaoExact:   {(*search).caoExact, exactRatio},
		CaoAppro1:  {(*search).caoAppro1, nil},
		CaoAppro2:  {(*search).caoAppro2, nil},
		Brute:      {(*search).bruteForce, exactRatio},
		PairsExact: {(*search).pairsExact, exactRatio},
	},
	Sum: {
		OwnerExact: atRatio((*search).ownerExact, exactRatio),
		OwnerAppro: atRatio((*search).ownerExact, harmonic),
		CaoExact:   atRatio((*search).ownerExact, exactRatio), // a name for the exact Sum search
		Brute:      {(*search).bruteForce, exactRatio},
	},
	MinMax: {
		OwnerExact: atRatio((*search).nearestOwner, exactRatio),
		OwnerAppro: atRatio((*search).nearestOwner, fixedRatio(2)),
		Brute:      {(*search).bruteForce, exactRatio},
	},
	SumMax: {
		OwnerExact: atRatio((*search).ownerExact, exactRatio),
		OwnerAppro: atRatio((*search).ownerExact, harmonic),
		Brute:      {(*search).bruteForce, exactRatio},
	},
}

// atRatio is the cell of a search that answers within a given slack of
// the optimum (ownerExact, nearestOwner), run at the cell's own ratio:
// exact at ratio 1, and within the ratio by construction otherwise.
func atRatio(run func(*search, Query, costFn, float64) (Result, error), ratio func(k int) float64) cell {
	at := func(s *search, q Query, cost costFn) (Result, error) {
		return run(s, q, cost, ratio(q.Keywords.Len()))
	}
	return cell{at, ratio}
}

// fixedRatio is a ratio independent of the keyword count.
func fixedRatio(r float64) func(int) float64 { return func(int) float64 { return r } }

// exactRatio is the ratio of an exact search.
func exactRatio(int) float64 { return 1 }

// harmonic returns H_k = 1 + 1/2 + … + 1/k.
func harmonic(k int) float64 {
	h := 0.0
	for i := 1; i <= k; i++ {
		h += 1 / float64(i)
	}
	return h
}

// ApproRatioBound returns the proven approximation ratio of method under
// cost for the largest query (|q.ψ| = kwds.MaxQueryKeywords, so Sum and
// SumMax report H_64): 1 for the exact algorithms, and 0 when no bound is
// established for the combination.
func ApproRatioBound(cost CostKind, method Method) float64 {
	if costMethod(cost, method) < 0 || cells[cost][method].ratio == nil {
		return 0
	}
	return cells[cost][method].ratio(kwds.MaxQueryKeywords)
}

// ErrInfeasible is returned when some query keyword appears in no object,
// so no feasible set exists.
var ErrInfeasible = errors.New("coskq: query keywords cannot be covered by the dataset")

// ErrUnsupported is returned for a (CostKind, Method) combination that has
// no algorithm.
var ErrUnsupported = errors.New("coskq: unsupported cost/method combination")

// ErrTooManyKeywords is returned for a query with more than
// kwds.MaxQueryKeywords keywords, the capacity of the coverage masks every
// algorithm runs on.
var ErrTooManyKeywords = fmt.Errorf("coskq: query has more than %d keywords", kwds.MaxQueryKeywords)

// ErrNoKeywords is returned for a query given as no words. Its text is
// what a /batch item carrying no keyword reports.
var ErrNoKeywords = errors.New("query carries no keywords")

// ErrBudgetExceeded is returned when an exact search expands more nodes
// than the engine's NodeBudget allows. The paper's evaluation reports the
// analogous condition for the Cao-Exact baseline as "did not finish"
// (e.g. runs exceeding 10 hours); the budget makes that observable without
// wall-clock dependence.
var ErrBudgetExceeded = errors.New("coskq: search node budget exceeded")

// budgetExceeded is the internal panic payload that unwinds a DFS when the
// node budget runs out; Solve's entry points recover it into
// ErrBudgetExceeded.
type budgetExceeded struct{}

// searchCanceled is the internal panic payload that unwinds a search when
// the per-call context (SolveCtx, SolveBatchCtx, TopKCtx) is cancelled;
// the entry points recover it into the context's error.
type searchCanceled struct{ err error }

// recoverBudget converts a budgetExceeded panic into ErrBudgetExceeded and
// a searchCanceled panic into its context error, re-panicking on anything
// else. Injected fault unwinds (internal/fault) translate the same way, so
// an armed fault surfaces exactly like the real condition it simulates;
// injected crashes (fault.Crash) deliberately re-panic. It is deferred
// with the address of the frame's named error result: by Config.enter for
// every entry point, and again by solveInner, topKInner and fallbackAppro
// because their callers act on the error (degrade.go).
func recoverBudget(err *error) {
	if r := recover(); r != nil {
		switch p := r.(type) {
		case budgetExceeded:
			*err = ErrBudgetExceeded
		case searchCanceled:
			*err = p.err
		case fault.Unwind:
			if p.Kind == fault.KindBudget {
				*err = ErrBudgetExceeded
			} else {
				*err = context.Canceled
			}
		default:
			panic(r)
		}
	}
}

// HitFault passes through injection point p under the engine's unwind
// mapping (recoverBudget): an injected Unwind returns as the typed error
// it simulates, and an injected Crash propagates like any programming
// error. Callers outside the engine run their own points through it.
func HitFault(p fault.Point) (err error) {
	defer recoverBudget(&err)
	fault.Hit(p)
	return nil
}

// Stats records search-effort counters for one query execution.
type Stats struct {
	Elapsed        time.Duration
	OwnersTried    int // candidate distance owners processed
	SetsEvaluated  int // feasible sets whose cost was computed
	NodesExpanded  int // search-tree nodes expanded (exact searches)
	CandidatesSeen int // relevant objects materialized

	// DegradeReason names why a degraded execution was cut short
	// ("budget", "deadline", "cancelled"); empty for complete answers.
	DegradeReason DegradeReason

	// Phases breaks Elapsed down across the coarse phases the algorithms
	// share; a phase an algorithm does not have stays zero. Phases.Seed
	// includes nested seed solves (e.g. Cao-Exact's Appro2 seeding).
	Phases PhaseBreakdown
	// Prunes counts, per pruning rule, how often the search discarded
	// work. Counting is a plain array increment, so it is always on; the
	// per-query trace (internal/trace) exports the same counters in its
	// EXPLAIN output.
	Prunes trace.PruneCounts
}

// merge folds another execution's counters into s (a degrade fallback
// adds the aborted search's effort to its own).
func (s *Stats) merge(o *Stats) {
	s.OwnersTried += o.OwnersTried
	s.SetsEvaluated += o.SetsEvaluated
	s.NodesExpanded += o.NodesExpanded
	s.CandidatesSeen += o.CandidatesSeen
	s.Prunes.Merge(o.Prunes)
}

// PhaseBreakdown splits one execution's elapsed time across the coarse
// algorithm phases.
type PhaseBreakdown struct {
	// Seed is the nearest-neighbor seeding phase (N(q) construction, or
	// an approximation run seeding an exact search).
	Seed time.Duration
	// Materialize is standalone candidate materialization (index disk
	// queries building candidate lists). Algorithms that interleave
	// materialization with the owner loop charge it to Search.
	Materialize time.Duration
	// Search is the owner loop / cover enumeration.
	Search time.Duration
}

// Result is the answer to one CoSKQ execution.
type Result struct {
	Set  []dataset.ObjectID // the feasible set, ascending object id
	Cost float64
	// Degraded marks an anytime answer: the search was cut short (node
	// budget, deadline, cancellation) and Set is the best feasible
	// incumbent — or an approximation fallback — rather than the
	// method's full answer. Stats.DegradeReason names the cause. Only
	// produced when Config.Degrade permits it; cost is an upper bound on
	// the method's full answer for the same query.
	Degraded bool
	Stats    Stats
}

// Engine is one dataset's index — the dataset, its IR-tree, its inverted
// file and its keyword-NN cache — plus the Config every solve on it runs
// under. Build one Engine per dataset and reuse it across queries; an
// Engine is safe for concurrent queries once built because queries never
// write to it: every field is exported configuration, and all per-call
// state lives on a pooled search (search.go).
type Engine struct {
	DS   *dataset.Dataset
	Tree *irtree.Tree
	// Inv belongs to the facade (query generation) and the shard data
	// plane (posting scans). No solver reads it, so an Engine literal that
	// names only DS and Tree answers every query.
	Inv *invindex.Index

	Config

	// NNCache, when non-nil, is the engine-level cross-query keyword-NN
	// cache (nncache.go): a bounded, sharded LRU keyed by (grid cell,
	// keyword) whose entries carry a distance-validity radius, so every
	// reuse is provably bit-identical to the IR-tree walk it replaces.
	// It indexes Tree, so it is part of the index rather than of Config.
	// Attach via EnableNNCache before issuing queries (the field itself
	// is not synchronized); the cache is safe for concurrent queries.
	NNCache *NNCache
}

// Config is the serving policy a solve runs under, apart from the index
// it reads: the node budget, the degrade policy, the ablation switches
// and the metrics sink. An Engine embeds one; the shard router holds one
// for its pool solve (SolvePool). Set it before issuing queries (it is
// not synchronized).
type Config struct {
	// NodeBudget caps the number of search nodes an exact algorithm may
	// expand per query; exceeding it returns ErrBudgetExceeded. Zero means
	// unlimited.
	NodeBudget int

	// NodeBudgetPerSecond derives each call's node budget from its
	// deadline: with a positive rate and a deadline on the call's
	// context, the budget is max(1, rate × seconds left when the call
	// starts) and replaces NodeBudget. It converts the wall-clock
	// deadline into a deterministic effort bound that trips before the
	// deadline does, so Degrade can return an anytime answer instead of
	// the deadline's error. Every call derives its own budget: each item
	// of a batch reads the time left when it starts. Zero disables
	// derivation.
	NodeBudgetPerSecond float64

	// Parallelism is ignored; every search is serial, on the calling
	// goroutine (DESIGN.md §10). It stays only because the benchmark
	// harness (bench/) still sets it.
	Parallelism int

	// Ablation disables individual pruning rules of the owner-driven
	// search for the ablation benchmarks. All-false (the zero value) is
	// the full algorithm; disabling rules never changes answers, only
	// search effort.
	Ablation Ablation

	// Degrade selects what Solve does when an exact search trips the
	// node budget, a deadline, or a cancellation: fail with the typed
	// error (DegradeFail, the default — the all-or-nothing contract),
	// return the best feasible incumbent as an anytime answer
	// (DegradeIncumbent), or additionally fall back to the cost's cheap
	// approximation when no incumbent exists yet (DegradeFallbackAppro).
	// See degrade.go and DESIGN.md §11.
	Degrade DegradePolicy

	// Metrics, when non-nil, receives one record per solve (including
	// every item of a batch): cumulative query and error counters plus
	// latency and search-effort histograms. Recording is atomic, so a
	// shared sink is safe under concurrent queries.
	Metrics *EngineMetrics
}

// Ablation toggles the owner-driven search's pruning rules off, one by
// one, to measure what each contributes (DESIGN.md experiment A1).
type Ablation struct {
	// NoOwnerRing drops the d(o,q) ≥ d_f owner filter: every relevant
	// object is tried as a query distance owner.
	NoOwnerRing bool
	// NoIncumbentBreak drops the d(o,q) ≥ curCost early termination of
	// the owner enumeration (owners are still skipped one by one).
	NoIncumbentBreak bool
	// NoPairPrune drops the combine(D, maxPair) ≥ best partial-set bound
	// inside the cover search (bestWithOwner), so every exact search that
	// runs it widens.
	NoPairPrune bool
	// NoSumDominance keeps dominated candidates in the enumerator's pool
	// under the Sum cost (an object is dominated when an earlier one of
	// the stream — at most as far — covers at least its query keywords).
	NoSumDominance bool
}

// NewEngine indexes ds with the given IR-tree fanout (0 for default).
func NewEngine(ds *dataset.Dataset, fanout int) *Engine {
	return &Engine{
		DS:   ds,
		Tree: irtree.Build(ds, fanout),
		Inv:  invindex.Build(ds),
	}
}

// Solve answers q with the chosen cost function and algorithm.
func (e *Engine) Solve(q Query, cost CostKind, method Method) (Result, error) {
	return e.SolveCtx(context.Background(), q, cost, method)
}

// SolveCtx is Solve with cancellation: when ctx is cancelled or its
// deadline passes, the search — including a long-running exact search
// deep inside its DFS — unwinds promptly (within a few hundred node
// expansions, the same mechanism that enforces NodeBudget) and the
// context's error is returned. A nil or never-cancellable ctx adds no
// per-node overhead. Every item of a batch runs SolveCtx.
func (e *Engine) SolveCtx(ctx context.Context, q Query, cost CostKind, method Method) (Result, error) {
	return e.solveOn(ctx, e.treeSource(), q, cost, method)
}

// Member is one object of an answer as a client sees it: its id, its
// location and its keyword strings.
type Member struct {
	ID    dataset.ObjectID
	Loc   geo.Point
	Words []string
}

// Answer is one query's outcome in the form every serving path returns:
// the Result, its members rendered, and — for a routed query — the
// per-shard calls it made, which the slow-query log records.
type Answer struct {
	Result
	Members []Member
	Calls   []trace.ShardCall
}

// Solver answers one query given as the wire carries it: a location,
// keyword strings, a cost and a method. *Engine, the live epoch store
// and the shard router implement it; the server's /query and /batch,
// and SolveWordsBatch, run over one.
type Solver interface {
	SolveWords(ctx context.Context, loc geo.Point, words []string, cost CostKind, method Method) (Answer, error)
}

// SolveWords answers a query given as keyword strings, the way the wire
// carries it: the words are resolved against e's vocabulary (an unknown
// word is an error naming every such word), the query is solved with
// SolveCtx, and the answer's members are rendered.
func (e *Engine) SolveWords(ctx context.Context, loc geo.Point, words []string, cost CostKind, method Method) (Answer, error) {
	keywords, err := e.ResolveWords(words)
	if err != nil {
		return Answer{}, err
	}
	return e.answer(ctx, Query{Loc: loc, Keywords: keywords}, cost, method)
}

// answer is SolveWords after the words are resolved: SolveCtx, then the
// members rendered.
func (e *Engine) answer(ctx context.Context, q Query, cost CostKind, method Method) (Answer, error) {
	res, err := e.SolveCtx(ctx, q, cost, method)
	if err != nil {
		return Answer{Result: res}, err
	}
	return Answer{Result: res, Members: e.Members(res.Set)}, nil
}

// ResolveWords maps words to their keyword set under e's vocabulary,
// failing with every word the vocabulary does not know, or with
// ErrNoKeywords when there is no word.
func (e *Engine) ResolveWords(words []string) (kwds.Set, error) {
	if len(words) == 0 {
		return nil, ErrNoKeywords
	}
	var keywords kwds.Set
	var missing []string
	for _, w := range words {
		if id, ok := e.DS.Vocab.Lookup(w); ok {
			keywords = keywords.Union(kwds.NewSet(id))
		} else {
			missing = append(missing, w)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("unknown keywords: %s", strings.Join(missing, ", "))
	}
	return keywords, nil
}

// Members renders the objects of set.
func (e *Engine) Members(set []dataset.ObjectID) []Member {
	out := make([]Member, len(set))
	for i, id := range set {
		o := e.DS.Object(id)
		words := make([]string, o.Keywords.Len())
		for j, kid := range o.Keywords {
			words[j] = e.DS.Vocab.Word(kid)
		}
		out[i] = Member{ID: id, Loc: o.Loc, Words: words}
	}
	return out
}

// solveOn is SolveCtx over the given source, under c.
func (c *Config) solveOn(ctx context.Context, src source, q Query, cost CostKind, method Method) (res Result, err error) {
	start := time.Now()
	err = c.enter(ctx, src, q, func(s *search) (err error) {
		res, err = s.solve(q, cost, method)
		return err
	})
	// Every algorithm stamps its own Elapsed, but error unwinds (budget,
	// cancellation) and future algorithms may not; stamp the wall time of
	// the whole call here so the field is populated uniformly.
	res.Stats.Elapsed = time.Since(start)
	if c.Metrics != nil {
		c.Metrics.recordSolve(cost, method, res, err, res.Stats.Elapsed)
	}
	return res, err
}

// Feasible reports whether set covers q's keywords.
func (e *Engine) Feasible(q Query, set []dataset.ObjectID) bool {
	var u kwds.Set
	for _, id := range set {
		u = u.Union(e.DS.Object(id).Keywords)
	}
	return u.Covers(q.Keywords)
}

// EvalCost computes cost(S) for the given cost function. It panics on an
// empty set (a CoSKQ answer is never empty for a non-empty query).
func (e *Engine) EvalCost(cost CostKind, q geo.Point, set []dataset.ObjectID) float64 {
	return e.treeSource().evalSet(costOf(cost), q, set)
}

// EvalPoints is EvalCost for a set given by its members' locations, for
// callers whose candidates are not objects of an engine's dataset (the
// shard router's merged NN seeds).
func EvalPoints(cost CostKind, q geo.Point, pts []geo.Point) float64 {
	return costOf(cost).eval(q, pts)
}

// canonical returns set sorted ascending with duplicates removed, the form
// every algorithm returns.
func canonical(set []dataset.ObjectID) []dataset.ObjectID {
	if len(set) == 0 {
		return nil
	}
	out := append([]dataset.ObjectID(nil), set...)
	// Insertion sort: answer sets have at most |q.ψ| + 1 members.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	dedup := out[:1]
	for _, id := range out[1:] {
		if id != dedup[len(dedup)-1] {
			dedup = append(dedup, id)
		}
	}
	return dedup
}

// BooleanKNN answers the classic boolean kNN spatial keyword query (the
// single-object query family of the related literature): the k objects
// nearest to p whose keyword sets each cover ALL of keywords, ascending
// by distance.
func (e *Engine) BooleanKNN(p geo.Point, keywords kwds.Set, k int) []dataset.ObjectID {
	return e.Tree.BooleanKNN(p, keywords, k)
}
