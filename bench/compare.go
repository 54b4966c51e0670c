package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// worsened returns by what share of old the metric got worse (negative:
// it improved), given which direction is better.
func worsened(spec metricSpec, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if spec.Better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// compareFiles prints, for every workload both result sets ran and every
// end-to-end metric, the change against its bound, and reports whether
// any metric got worse by more than its bound or any run was incorrect.
func compareFiles(out io.Writer, spec *benchSpec, oldPath string, cur *resultFile) (regressed bool, err error) {
	data, err := os.ReadFile(oldPath)
	if err != nil {
		return false, err
	}
	var old resultFile
	if err := json.Unmarshal(data, &old); err != nil {
		return false, fmt.Errorf("%s: %w", oldPath, err)
	}
	if old.Trace || cur.Trace {
		return false, fmt.Errorf("-compare gates end-to-end metrics: both result sets must come from untraced runs")
	}
	if old.Seed != cur.Seed || old.Seconds != cur.Seconds {
		fmt.Fprintf(out, "compare: WARNING: seed/seconds differ (%d/%d vs %d/%d); the inputs are not the same\n",
			old.Seed, old.Seconds, cur.Seed, cur.Seconds)
	}
	names := make([]string, 0, len(cur.Workloads))
	for name := range cur.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-12s %-18s %14s %14s %9s %7s\n", "workload", "metric", "old", "new", "worse by", "bound")
	for _, name := range names {
		was, now := old.Workloads[name], cur.Workloads[name]
		if was == nil {
			fmt.Fprintf(out, "%-12s not in %s\n", name, oldPath)
			continue
		}
		if !was.Correct || !now.Correct {
			fmt.Fprintf(out, "%-12s INCORRECT run (old correct=%v, new correct=%v)\n", name, was.Correct, now.Correct)
			regressed = true
		}
		for _, m := range spec.EndToEnd {
			w := worsened(m, was.Metrics[m.Name].Value, now.Metrics[m.Name].Value)
			verdict := ""
			if w > m.Bound {
				verdict = "  REGRESSED"
				regressed = true
			}
			fmt.Fprintf(out, "%-12s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", name, m.Name,
				was.Metrics[m.Name].Value, now.Metrics[m.Name].Value, 100*w, 100*m.Bound, verdict)
		}
	}
	return regressed, nil
}
