// Package coskq is a library for collective spatial keyword queries
// (CoSKQ), implementing the distance owner-driven approach of
//
//	Cheng Long, Raymond Chi-Wing Wong, Ke Wang, Ada Wai-Chee Fu.
//	"Collective spatial keyword queries: a distance owner-driven approach."
//	SIGMOD 2013.
//
// A CoSKQ takes a query location and a set of query keywords over a
// database of geo-textual objects and returns a set of objects that
// together cover the keywords while minimizing a spatial cost function.
// The library provides the paper's exact and approximate algorithms for
// the MaxSum and Dia cost functions, the Cao et al. (SIGMOD 2011)
// baselines, the IR-tree index they run on, workload generators calibrated
// to the paper's datasets, and the full experiment harness that reproduces
// the paper's evaluation.
//
// # Quick start
//
//	b := coskq.NewBuilder("pois")
//	b.Add(coskq.Point{X: 1, Y: 2}, "restaurant", "bar")
//	b.Add(coskq.Point{X: 3, Y: 1}, "museum")
//	b.Add(coskq.Point{X: 2, Y: 2}, "shopping")
//	eng := coskq.NewEngine(b.Build(), 0)
//
//	q := coskq.Query{Loc: coskq.Point{X: 0, Y: 0}, Keywords: coskq.Keywords(eng, "restaurant", "museum")}
//	res, err := eng.Solve(q, coskq.MaxSum, coskq.OwnerExact)
//
// The returned Result holds the chosen object ids, the achieved cost and
// search statistics. See the examples directory for complete programs.
package coskq

import (
	"io"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/invindex"
	"coskq/internal/kwds"
	"coskq/internal/shard"
)

// Point is a planar location (Euclidean distances, as in the paper).
type Point = geo.Point

// Rect is an axis-aligned rectangle (e.g. a dataset MBR).
type Rect = geo.Rect

// KeywordID identifies an interned keyword within one dataset.
type KeywordID = kwds.ID

// KeywordSet is a sorted, duplicate-free set of keyword ids.
type KeywordSet = kwds.Set

// NewKeywordSet builds a KeywordSet from ids (sorting and de-duplicating).
func NewKeywordSet(ids ...KeywordID) KeywordSet { return kwds.NewSet(ids...) }

// ObjectID identifies an object within one dataset.
type ObjectID = dataset.ObjectID

// Object is a geo-textual object: a location plus a keyword set.
type Object = dataset.Object

// Dataset is an immutable collection of geo-textual objects.
type Dataset = dataset.Dataset

// DatasetStats summarizes a dataset (object count, vocabulary, keyword
// counts), matching the paper's dataset statistics table.
type DatasetStats = dataset.Stats

// Builder accumulates objects into a Dataset.
type Builder = dataset.Builder

// NewBuilder returns a Builder for a dataset with the given name.
func NewBuilder(name string) *Builder { return dataset.NewBuilder(name) }

// LoadDataset reads a dataset from a file written by Dataset.Save.
func LoadDataset(path string) (*Dataset, error) { return dataset.Load(path) }

// Query is a collective spatial keyword query.
type Query = core.Query

// Result is the answer to one query execution.
type Result = core.Result

// SearchStats carries per-execution search-effort counters.
type SearchStats = core.Stats

// CostKind selects the cost function.
type CostKind = core.CostKind

// Cost functions. MaxSum and Dia are the paper's; Sum and MinMax are the
// Cao et al. costs supported as extensions.
const (
	MaxSum = core.MaxSum
	Dia    = core.Dia
	Sum    = core.Sum
	MinMax = core.MinMax
	SumMax = core.SumMax
)

// Method selects the algorithm.
type Method = core.Method

// Algorithms. OwnerExact/OwnerAppro are the paper's distance owner-driven
// algorithms (under Sum, SumMax and MinMax, OwnerAppro is the exact search
// run with a fixed slack); CaoExact/CaoAppro1/CaoAppro2 are the SIGMOD
// 2011 baselines; Brute is the exhaustive testing oracle; PairsExact is
// the published pseudocode form of the exact search.
const (
	OwnerExact = core.OwnerExact
	OwnerAppro = core.OwnerAppro
	CaoExact   = core.CaoExact
	CaoAppro1  = core.CaoAppro1
	CaoAppro2  = core.CaoAppro2
	Brute      = core.Brute
	PairsExact = core.PairsExact
)

// ErrInfeasible is returned when some query keyword appears in no object.
var ErrInfeasible = core.ErrInfeasible

// ErrUnsupported is returned for a cost/method pair with no algorithm.
var ErrUnsupported = core.ErrUnsupported

// ErrBudgetExceeded is returned when NodeBudget trips an exact search
// under the default DegradeFail policy.
var ErrBudgetExceeded = core.ErrBudgetExceeded

// DegradePolicy selects what an interrupted search (budget, deadline,
// cancellation) returns: the error (DegradeFail, the zero value), the
// best feasible set found so far (DegradeIncumbent), or — when no
// incumbent exists either — a fresh approximation (DegradeFallbackAppro).
// Degraded answers carry Result.Degraded and Stats.DegradeReason.
type DegradePolicy = core.DegradePolicy

// Degrade policies for Engine.Degrade.
const (
	DegradeFail          = core.DegradeFail
	DegradeIncumbent     = core.DegradeIncumbent
	DegradeFallbackAppro = core.DegradeFallbackAppro
)

// ParseDegradePolicy maps a flag spelling ("fail", "incumbent",
// "fallback"/"appro") to its policy.
func ParseDegradePolicy(s string) (DegradePolicy, bool) { return core.ParseDegradePolicy(s) }

// Engine owns a dataset and its indexes (IR-tree and inverted index) and
// answers queries. Build once per dataset; safe for concurrent queries.
type Engine = core.Engine

// NewEngine indexes ds with the given IR-tree fanout (0 for the default).
func NewEngine(ds *Dataset, fanout int) *Engine { return core.NewEngine(ds, fanout) }

// Keywords resolves keyword strings against an engine's dataset
// vocabulary, silently dropping unknown words (an unknown word makes the
// query infeasible anyway; callers that care should use LookupKeyword).
func Keywords(e *Engine, words ...string) KeywordSet {
	var ids []KeywordID
	for _, w := range words {
		if id, ok := e.DS.Vocab.Lookup(w); ok {
			ids = append(ids, id)
		}
	}
	return kwds.NewSet(ids...)
}

// LookupKeyword resolves one keyword string against a dataset vocabulary.
func LookupKeyword(ds *Dataset, word string) (KeywordID, bool) {
	return ds.Vocab.Lookup(word)
}

// GenConfig parameterizes synthetic dataset generation.
type GenConfig = datagen.Config

// Generate builds a synthetic dataset (deterministic in the seed).
func Generate(cfg GenConfig) *Dataset { return datagen.Generate(cfg) }

// ProfileHotel / ProfileGN / ProfileWeb return generator configurations
// calibrated to the published statistics of the paper's three datasets.
// The scale factor (for GN and Web) shrinks the object count and
// vocabulary proportionally for laptop-scale runs.
func ProfileHotel(seed int64) GenConfig              { return datagen.ProfileHotel(seed) }
func ProfileGN(seed int64, scale float64) GenConfig  { return datagen.ProfileGN(seed, scale) }
func ProfileWeb(seed int64, scale float64) GenConfig { return datagen.ProfileWeb(seed, scale) }

// AugmentKeywords raises the dataset's average keywords per object to at
// least targetAvg (the paper's avg |o.ψ| sweep construction).
func AugmentKeywords(ds *Dataset, targetAvg float64, seed int64) *Dataset {
	return datagen.AugmentKeywords(ds, targetAvg, seed)
}

// AugmentToN grows a dataset to n objects by resampling locations and
// documents from the base (the paper's scalability construction).
func AugmentToN(ds *Dataset, n int, seed int64) *Dataset {
	return datagen.AugmentToN(ds, n, seed)
}

// QueryGen draws query workloads the way the paper does.
type QueryGen = datagen.QueryGen

// NewQueryGen prepares a query generator over an engine's dataset using
// the paper's frequency percentile band [loPct, hiPct).
func NewQueryGen(e *Engine, loPct, hiPct float64, seed int64) *QueryGen {
	return datagen.NewQueryGen(e.DS, e.Inv, loPct, hiPct, seed)
}

// InvertedIndex exposes keyword posting lists and frequency ranking.
type InvertedIndex = invindex.Index

// ShardRouter answers queries by distance-bounded scatter-gather over a
// set of spatial shards, mirroring Engine.Solve/SolveCtx: exact methods
// return exactly the single-engine answer, approximations keep their
// proven ratios.
type ShardRouter = shard.Router

// ShardPartitioner splits a dataset into spatial shards.
type ShardPartitioner = shard.Partitioner

// GridPartitioner returns the uniform-grid sharding strategy.
func GridPartitioner() ShardPartitioner { return shard.Grid() }

// SubtreePartitioner returns the R-tree-top-subtree sharding strategy
// (tighter shard MBRs on skewed data).
func SubtreePartitioner() ShardPartitioner { return shard.Subtree() }

// NewShardedEngine partitions ds into n shards with the given strategy
// and returns a router over them; each shard is its slice of the dataset
// plus posting lists. The router answers Solve/SolveCtx like an Engine.
func NewShardedEngine(ds *Dataset, n int, part ShardPartitioner) (*ShardRouter, error) {
	return shard.NewLocalRouter(ds, n, part, 0)
}

// LoadCSVDataset reads a dataset from a CSV file with records
// "x,y,word1 word2 ..." (header optional). See also ReadCSVLatLon for
// longitude/latitude data.
func LoadCSVDataset(path string) (*Dataset, error) { return dataset.LoadCSV(path) }

// ReadCSV parses a planar-coordinate CSV dataset ("x,y,words").
func ReadCSV(name string, r io.Reader) (*Dataset, error) { return dataset.ReadCSV(name, r) }

// ReadCSVLatLon parses a "lon,lat,words" CSV dataset, projecting
// coordinates to planar kilometers around the reference latitude.
func ReadCSVLatLon(name string, r io.Reader, refLatDeg float64) (*Dataset, error) {
	return dataset.ReadCSVLatLon(name, r, refLatDeg)
}
