package shard

import (
	"context"
	"errors"
	"testing"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/kwds"
)

// cornerDataset has four tight clusters at the corners of [0,1000]².
// Every cluster covers {alpha, beta, gamma}; only cluster 0 has "rare".
func cornerDataset() *dataset.Dataset {
	b := dataset.NewBuilder("corners")
	centers := []geo.Point{pt(50, 50), pt(950, 50), pt(50, 950), pt(950, 950)}
	for ci, c := range centers {
		for i := 0; i < 12; i++ {
			p := pt(c.X+float64(i%4)*3, c.Y+float64(i/4)*3)
			ws := []string{"alpha", "beta"}
			if i%3 == 0 {
				ws = append(ws, "gamma")
			}
			if ci == 0 && i%4 == 0 {
				ws = append(ws, "rare")
			}
			b.Add(p, ws...)
		}
	}
	return b.Build()
}

// relevantDists returns the distance from loc of every object on sh
// containing at least one of the query words.
func relevantDists(sh Shard, loc geo.Point, words []string) []float64 {
	var qset kwds.Set
	for _, w := range words {
		if id, ok := sh.DS.Vocab.Lookup(w); ok {
			qset = qset.Union(kwds.NewSet(id))
		}
	}
	var out []float64
	for i := range sh.DS.Objects {
		o := &sh.DS.Objects[i]
		if o.Keywords.Intersects(qset) {
			out = append(out, loc.Dist(o.Loc))
		}
	}
	return out
}

// TestMBRPruneNeverHidesTheOptimum is the prune property test on a
// crafted geometry: a query inside one cluster prunes the far clusters,
// and re-examining each pruned shard exhaustively proves the prune
// sound — every relevant object on it lies strictly beyond the gather
// radius, which itself upper-bounds the optimal cost.
func TestMBRPruneNeverHidesTheOptimum(t *testing.T) {
	ds := cornerDataset()
	shards, err := Grid().Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := &Router{Backends: BuildBackends(shards), Vocab: ds.Vocab}
	eng := core.NewEngine(ds, 0)
	loc := pt(55, 55)
	words := []string{"alpha", "gamma"}

	ans, err := r.RouteWords(context.Background(), loc, words, core.MaxSum, core.OwnerExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Info.MBRPruned) == 0 {
		t.Fatalf("expected MBR prunes on corner geometry, info = %+v", ans.Info)
	}
	assertPruneSound(t, eng, shards, loc, words, core.MaxSum, ans)
}

// TestPrunePropertyRandomWorkload repeats the soundness check over a
// randomized clustered workload and the subtree partitioner, where
// prune decisions are not hand-crafted.
func TestPrunePropertyRandomWorkload(t *testing.T) {
	ds := datagen.Generate(datagen.Config{
		Name: "prune-rand", NumObjects: 400, VocabSize: 50,
		AvgKeywords: 3, Clusters: 8, Seed: 1203,
	})
	shards, err := Subtree().Partition(ds, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := &Router{Backends: BuildBackends(shards), Vocab: ds.Vocab}
	eng := core.NewEngine(ds, 0)
	g := datagen.NewQueryGen(ds, eng.Inv, 0, 40, 77)
	mbrPrunes, kwPrunes := 0, 0
	for i := 0; i < 20; i++ {
		loc, kws := g.Next(2)
		words := make([]string, len(kws))
		for j, id := range kws {
			words[j] = ds.Vocab.Word(id)
		}
		ans, err := r.RouteWords(context.Background(), loc, words, core.MaxSum, core.OwnerExact)
		if errors.Is(err, core.ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		mbrPrunes += len(ans.Info.MBRPruned)
		kwPrunes += len(ans.Info.KeywordPruned)
		assertPruneSound(t, eng, shards, loc, words, core.MaxSum, ans)
	}
	t.Logf("prunes exercised: %d mbr, %d keyword over 20 queries", mbrPrunes, kwPrunes)
}

// TestKeywordPruneIsProof: a shard pruned by the keyword summary must
// truly lack every query word (a clear bit is a proof of absence), and
// the prune must never manufacture infeasibility.
func TestKeywordPruneIsProof(t *testing.T) {
	ds := cornerDataset()
	shards, err := Grid().Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := &Router{Backends: BuildBackends(shards), Vocab: ds.Vocab}
	ans, err := r.RouteWords(context.Background(), pt(60, 60), []string{"rare"}, core.MaxSum, core.OwnerExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Info.KeywordPruned) == 0 {
		t.Fatalf("expected keyword prunes, info = %+v", ans.Info)
	}
	for _, ord := range ans.Info.KeywordPruned {
		if ds := relevantDists(shards[ord], pt(60, 60), []string{"rare"}); len(ds) > 0 {
			t.Fatalf("shard %d keyword-pruned but holds %d objects with a query word", ord, len(ds))
		}
	}
	if len(ans.Result.Set) == 0 {
		t.Fatal("feasible query answered with an empty set")
	}
}

// assertPruneSound verifies one routed answer's prune decisions against
// exhaustive re-examination: (1) the gather radius upper-bounds the
// true optimal cost, (2) every relevant object on an MBR-pruned shard
// lies beyond the radius (one-ulp tie-aware: the prune itself uses a
// strict inequality, so boundary ties are never pruned), and (3) no
// member of the true optimal set lives on a pruned shard.
func assertPruneSound(t *testing.T, eng *core.Engine, shards []Shard, loc geo.Point, words []string, cost core.CostKind, ans Answer) {
	t.Helper()
	var qset kwds.Set
	for _, w := range words {
		if id, ok := eng.DS.Vocab.Lookup(w); ok {
			qset = qset.Union(kwds.NewSet(id))
		}
	}
	opt, err := eng.Solve(core.Query{Loc: loc, Keywords: qset}, cost, core.OwnerExact)
	if err != nil {
		t.Fatalf("oracle solve: %v", err)
	}
	const ulp = 1e-12
	if opt.Cost > ans.Info.Radius*(1+ulp) {
		t.Fatalf("gather radius %v below the optimal cost %v", ans.Info.Radius, opt.Cost)
	}
	if ans.Result.Cost > opt.Cost*(1+ulp) || ans.Result.Cost < opt.Cost*(1-ulp) {
		t.Fatalf("routed exact cost %v ≠ optimal cost %v", ans.Result.Cost, opt.Cost)
	}
	shardOf := make(map[dataset.ObjectID]int)
	for si, sh := range shards {
		for _, gid := range sh.GlobalIDs {
			shardOf[gid] = si
		}
	}
	pruned := make(map[int]bool)
	for _, ord := range ans.Info.MBRPruned {
		pruned[ord] = true
		for _, d := range relevantDists(shards[ord], loc, words) {
			if d <= ans.Info.Radius*(1-ulp) {
				t.Fatalf("shard %d MBR-pruned at radius %v but holds a relevant object at distance %v",
					ord, ans.Info.Radius, d)
			}
		}
	}
	for _, ord := range ans.Info.KeywordPruned {
		pruned[ord] = true
		if ds := relevantDists(shards[ord], loc, words); len(ds) > 0 {
			t.Fatalf("shard %d keyword-pruned but holds %d relevant objects", ord, len(ds))
		}
	}
	for _, gid := range opt.Set {
		if ord, ok := shardOf[gid]; ok && pruned[ord] {
			t.Fatalf("optimal-set member %d lives on pruned shard %d", gid, ord)
		}
	}
}
