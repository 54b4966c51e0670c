package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/geo"
	"coskq/internal/invindex"
	"coskq/internal/irtree"
	"coskq/internal/kwds"
	"coskq/internal/shard"
	"coskq/internal/trace"
)

// t1 prints the dataset statistics table (the paper's datasets table),
// realized by the calibrated synthetic profiles.
func t1(opt Options) {
	fmt.Fprintf(opt.Out, "%-12s %12s %14s %12s %10s\n", "dataset", "objects", "unique words", "words", "avg|o.ψ|")
	for _, data := range []func(Options) *dataset.Dataset{hotel, gn, web} {
		ds := data(opt)
		s := ds.Stats()
		fmt.Fprintf(opt.Out, "%-12s %12d %14d %12d %10.2f\n",
			ds.Name, s.NumObjects, s.NumUniqueWords, s.NumWords, s.AvgKeywords)
	}
}

// x2 measures the distributed-observability overhead on the
// scatter-gather path (DESIGN.md §13): the same routed workload with
// tracing off (untraced context, zero-alloc serve path) vs. on (per-
// query trace + span context, fragments stitched per shard call). The
// router is in-process — the delta is pure instrumentation and stitch
// cost, with no network noise. The served equivalent is the benchmark's
// trace.solve_overhead_ratio on gn-sharded (bench/README.md).
func x2(opt Options) {
	ds := hotel(opt)
	shards, err := shard.Subtree().Partition(ds, 4)
	if err != nil {
		panic(fmt.Sprintf("experiments: X2 partition: %v", err))
	}
	backends := make([]shard.Backend, len(shards))
	for i, sh := range shards {
		backends[i] = shard.NewEngineBackend(fmt.Sprintf("shard-%d", i), sh)
	}
	rt := &shard.Router{Backends: backends}
	eng := opt.newEngine(ds) // query generation only

	fmt.Fprintf(opt.Out, "%-8s %14s %14s %10s %12s\n",
		"|q.psi|", "trace-off", "trace-on", "overhead", "spans/query")
	for _, k := range []int{3, 6, 9} {
		queries := genQueries(eng, opt.Queries, k, opt.Seed+int64(k)*17)
		var off, on samples
		totalSpans := 0
		for _, q := range queries {
			words := make([]string, 0, q.Keywords.Len())
			for _, id := range q.Keywords {
				words = append(words, ds.Vocab.Word(id))
			}
			start := time.Now()
			_, errOff := rt.RouteWords(context.Background(), q.Loc, words, core.MaxSum, core.OwnerExact)
			elapsedOff := time.Since(start)

			tr := trace.New("scatter")
			ctx := trace.NewContext(context.Background(), tr)
			ctx = trace.ContextWithSpanContext(ctx, trace.NewSpanContext())
			start = time.Now()
			_, errOn := rt.RouteWords(ctx, q.Loc, words, core.MaxSum, core.OwnerExact)
			elapsedOn := time.Since(start)
			tr.Finish()
			if errOff == core.ErrInfeasible && errOn == core.ErrInfeasible {
				continue
			}
			if errOff != nil || errOn != nil {
				panic(fmt.Sprintf("experiments: X2 route failed: off=%v on=%v", errOff, errOn))
			}
			off = append(off, elapsedOff.Seconds())
			on = append(on, elapsedOn.Seconds())
			totalSpans += tr.Export().SpanCount()
		}
		overhead, spans := "-", "-"
		if len(off) > 0 && off.mean() > 0 {
			overhead = fmt.Sprintf("%+.1f%%", 100*(on.mean()-off.mean())/off.mean())
			spans = fmt.Sprintf("%.1f", float64(totalSpans)/float64(len(off)))
		}
		fmt.Fprintf(opt.Out, "%-8d %14s %14s %10s %12s\n", k,
			fmtDuration(time.Duration(off.mean()*float64(time.Second))),
			fmtDuration(time.Duration(on.mean()*float64(time.Second))),
			overhead, spans)
	}
}

// a2 times the primitive every search starts from, the keyword NN
// NN(q, t), two ways on 100k objects: the IR-tree's best-first walk, and
// a scan of t's posting list. Each row probes opt.Queries random points
// with each of 100 keywords from one end of the frequency ranking. The
// scan is the reference: a walk that disagrees with it is a bug.
func a2(opt Options) {
	ds := datagen.Generate(datagen.Config{
		Name: "a2", NumObjects: 100_000, VocabSize: 2000, AvgKeywords: 5, Clusters: 100, Seed: opt.Seed,
	})
	tree := irtree.Build(ds, 0)
	inv := invindex.Build(ds)
	ranked := inv.ByFrequency()
	mbr := ds.MBR()
	scan := func(p geo.Point, kw kwds.ID) float64 {
		best := -1.0
		for _, id := range inv.Postings(kw) {
			if d := p.Dist(ds.Object(id).Loc); best < 0 || d < best {
				best = d
			}
		}
		return best
	}

	fmt.Fprintf(opt.Out, "%-12s %14s %14s %10s\n", "keywords", "irtree", "postings-scan", "scan/walk")
	for _, row := range []struct {
		label string
		kws   []kwds.ID
	}{{"frequent", ranked[:100]}, {"rare", ranked[len(ranked)-100:]}} {
		rng := rand.New(rand.NewSource(opt.Seed))
		probes := make([]geo.Point, opt.Queries)
		for i := range probes {
			probes[i] = geo.Point{X: mbr.MinX + rng.Float64()*mbr.Width(), Y: mbr.MinY + rng.Float64()*mbr.Height()}
		}
		dists := make([]float64, 0, len(probes)*len(row.kws))
		start := time.Now()
		for _, p := range probes {
			for _, kw := range row.kws {
				_, d, _ := tree.NN(p, kw)
				dists = append(dists, d)
			}
		}
		walk := time.Since(start)
		start = time.Now()
		i := 0
		for _, p := range probes {
			for _, kw := range row.kws {
				if d := scan(p, kw); d != dists[i] {
					panic(fmt.Sprintf("experiments: A2 IR-tree NN %v, posting scan %v", dists[i], d))
				}
				i++
			}
		}
		scanned := time.Since(start)
		n := time.Duration(len(dists))
		fmt.Fprintf(opt.Out, "%-12s %14s %14s %9.2fx\n", row.label,
			fmtDuration(walk/n), fmtDuration(scanned/n), scanned.Seconds()/walk.Seconds())
	}
}
