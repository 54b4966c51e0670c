// Command coskq-bench regenerates the paper's evaluation: every table and
// figure has an experiment id (T1, E1–E8, X1, X2; see DESIGN.md §5) whose rows are
// printed in the paper's layout (mean running time per algorithm plus
// avg/max approximation ratios).
//
// Usage:
//
//	coskq-bench [-exp all] [-queries 100] [-seed 1] [-scale 0.02] [-full] [-budget 20000000]
//
// -full selects the paper-size scalability sweep (2M–10M objects); the
// default sweep (50k–800k) fits a laptop. Exact-search executions that
// exceed the node budget are reported as DNF, mirroring the paper's
// "did not finish" entries for the Cao-Exact baseline.
package main

import (
	"flag"
	"fmt"
	"os"

	"coskq/internal/core"
	"coskq/internal/experiments"
	"coskq/internal/trace"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id: T1, E1..E8, X1, X2 or all")
		queries     = flag.Int("queries", 100, "queries per parameter setting (paper: 500)")
		seed        = flag.Int64("seed", 1, "workload seed")
		scale       = flag.Float64("scale", 0.02, "GN/Web profile scale factor in (0,1]")
		full        = flag.Bool("full", false, "paper-size scalability sweep (2M-10M objects)")
		budget      = flag.Int("budget", 20_000_000, "exact-search node budget per query (DNF beyond)")
		showMetrics = flag.Bool("metrics", false, "print the cumulative query/latency/effort metrics (the same exposition coskq-server serves on /metrics) after the run")
		showTrace   = flag.Bool("trace", false, "trace every query and print the slowest executions' trace trees after the run (adds a few percent of overhead)")
		nnCache     = flag.Int("nn-cache", 0, "engine keyword-NN cache capacity in entries, shared across queries (0 = disabled)")
	)
	flag.Parse()

	opt := experiments.Options{
		Queries:    *queries,
		Seed:       *seed,
		Scale:      *scale,
		Full:       *full,
		NodeBudget: *budget,
		NNCache:    *nnCache,
		Out:        os.Stdout,
	}
	if *showMetrics {
		opt.Metrics = core.NewEngineMetrics(nil)
	}
	if *showTrace {
		opt.SlowLog = trace.NewSlowLog(3)
	}
	if err := experiments.Run(*exp, opt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if opt.Metrics != nil {
		fmt.Println("\n== metrics: cumulative counters and histograms over the whole run ==")
		opt.Metrics.WriteText(os.Stdout)
	}
	if opt.SlowLog != nil {
		fmt.Println("\n== slowest traced queries ==")
		for _, e := range opt.SlowLog.Snapshot() {
			fmt.Printf("\n%s  (%.3fms", e.Query, e.ElapsedMs)
			if e.Err != "" {
				fmt.Printf(", error: %s", e.Err)
			}
			fmt.Println(")")
			e.Trace.WriteTree(os.Stdout)
		}
	}
}
