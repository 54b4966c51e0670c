// Command coskq-bench regenerates the paper's evaluation: every table and
// figure has an experiment id (internal/experiments.Table; see DESIGN.md
// §5) whose rows are printed in the paper's layout (mean running time per
// algorithm plus avg/max approximation ratios).
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
	"strings"

	"coskq/internal/core"
	"coskq/internal/experiments"
	"coskq/internal/trace"
)

func main() {
	ids := make([]string, len(experiments.Table))
	for i, e := range experiments.Table {
		ids[i] = e.ID
	}
	var (
		exp         = flag.String("exp", "all", "experiment id: "+strings.Join(ids, ", ")+" or all")
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
	if err := (rangeFlags{queries: *queries, scale: *scale, budget: *budget}).check(); err != nil {
		fmt.Fprintf(os.Stderr, "coskq-bench: %v\n", err)
		os.Exit(2)
	}

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

// rangeFlags are the numeric flags with a valid range.
type rangeFlags struct {
	queries int
	scale   float64
	budget  int
}

// check rejects a value out of its flag's range, which would otherwise
// panic mid-run (a negative -queries) or silently run another workload
// (a -scale outside (0, 1] generates a different profile).
func (f rangeFlags) check() error {
	switch {
	case f.queries < 1:
		return fmt.Errorf("-queries %d: want at least 1", f.queries)
	case !(f.scale > 0 && f.scale <= 1):
		return fmt.Errorf("-scale %v: want a value in (0, 1]", f.scale)
	case f.budget < 0:
		return fmt.Errorf("-budget %d: want 0 or more", f.budget)
	}
	return nil
}
