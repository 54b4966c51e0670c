package experiments

import (
	"bytes"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"time"

	"coskq/internal/core"
	"coskq/internal/datagen"
	"coskq/internal/dataset"
	"coskq/internal/trace"
)

// tinyOptions keeps the suite fast for unit testing.
func tinyOptions(buf *bytes.Buffer) Options {
	return Options{Queries: 3, Seed: 1, Scale: 0.001, NodeBudget: 200_000, Out: buf}
}

// tinySweep is a |q.ψ| sweep over a small synthetic dataset.
func tinySweep(cfg datagen.Config, cost core.CostKind, ks ...int) Experiment {
	e := qkwSweep("Etest", func(Options) *dataset.Dataset { return datagen.Generate(cfg) }, cost)
	e.Grid = kwGrid(1, ks...)
	return e
}

// tinyCase is one row of a small synthetic dataset's MaxSum sweep.
func tinyCase(cfg datagen.Config, n, k int, seed int64) Case {
	eng := core.NewEngine(datagen.Generate(cfg), 0)
	return Case{Cost: core.MaxSum, Algos: paperAlgos(core.MaxSum), Engine: eng, Queries: genQueries(eng, n, k, seed)}
}

func TestT1PrintsAllProfiles(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("T1", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Hotel", "GN", "Web", "unique words"} {
		if !strings.Contains(out, want) {
			t.Fatalf("T1 output missing %q:\n%s", want, out)
		}
	}
}

func TestQuerySweepSmall(t *testing.T) {
	var buf bytes.Buffer
	tinySweep(datagen.Config{Name: "tiny", NumObjects: 2000, VocabSize: 60, AvgKeywords: 4, Seed: 2},
		core.MaxSum, 2, 3).Print(tinyOptions(&buf))
	out := buf.String()
	for _, want := range []string{"Etest", "MaxSum-Exact", "Cao-Exact", "MaxSum-Appro", "Cao-Appro1", "Cao-Appro2", "ratio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, out)
		}
	}
	// Two parameter rows, each with a ratio line.
	if strings.Count(out, "ratio") != 2 {
		t.Fatalf("expected 2 ratio rows:\n%s", out)
	}
}

func TestDiaSweepUsesStarredBaselines(t *testing.T) {
	var buf bytes.Buffer
	tinySweep(datagen.Config{Name: "tiny", NumObjects: 1000, VocabSize: 40, AvgKeywords: 4, Seed: 3},
		core.Dia, 2).Print(tinyOptions(&buf))
	out := buf.String()
	for _, want := range []string{"Dia-Exact", "Cao-Exact*", "Cao-Appro1*", "Dia-Appro"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Dia sweep missing %q:\n%s", want, out)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("t1", tinyOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	if err := Run("nope", tinyOptions(&buf)); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestRunSettingRatiosSane(t *testing.T) {
	c := tinyCase(datagen.Config{Name: "s", NumObjects: 3000, VocabSize: 80, AvgKeywords: 4, Seed: 5}, 10, 3, 7)
	cells := runSetting(c, nil)
	for i, a := range c.Algos {
		if a.Exact {
			continue
		}
		if len(cells[i].ratio) == 0 {
			t.Fatalf("%s recorded no ratios", a.Name)
		}
		for _, r := range cells[i].ratio {
			if r < 1-1e-9 {
				t.Fatalf("%s ratio below 1: %v (exact must be optimal)", a.Name, r)
			}
		}
	}
	// The owner-driven approximation must stay within its proved bound.
	if c.Algos[2].Name != "MaxSum-Appro" {
		t.Fatalf("column 2 is %s", c.Algos[2].Name)
	}
	if r := cells[2].ratio.max(); r > 1.375+1e-9 {
		t.Fatalf("MaxSum-Appro ratio %v exceeds 1.375", r)
	}
}

// TestRunSettingSlowLog: with a slow log attached, every execution is
// traced and the slowest are retained with non-empty trace trees.
func TestRunSettingSlowLog(t *testing.T) {
	c := tinyCase(datagen.Config{Name: "slow", NumObjects: 2000, VocabSize: 60, AvgKeywords: 4, Seed: 9}, 5, 3, 11)
	slow := trace.NewSlowLog(4)
	runSetting(c, slow)
	entries := slow.Snapshot()
	if len(entries) != 4 {
		t.Fatalf("slow log retained %d entries, want 4", len(entries))
	}
	for i, e := range entries {
		if e.Trace == nil || e.Trace.SpanCount() < 2 {
			t.Fatalf("entry %d: trace missing or trivial (%+v)", i, e.Trace)
		}
		if e.Query == "" {
			t.Fatalf("entry %d has no query description", i)
		}
	}
}

func TestRunSettingDNFCounting(t *testing.T) {
	c := tinyCase(datagen.Config{Name: "dnf", NumObjects: 3000, VocabSize: 40, AvgKeywords: 6, Seed: 6}, 5, 6, 8)
	c.Engine.NodeBudget = 1 // impossible budget
	cells := runSetting(c, nil)
	for i, a := range c.Algos {
		if a.Exact && cells[i].dnf == 0 {
			t.Fatalf("%s should DNF under a 1-node budget", a.Name)
		}
		if !a.Exact && cells[i].dnf != 0 {
			t.Fatalf("%s (approximate) should never DNF", a.Name)
		}
	}
}

// TestAllExperimentsTinyScale prints every experiment of Table end to end,
// each sweep cut to one row at a minuscule scale: every banner appears,
// every approximate column gets a ratio, and A1's no-pair-prune row stops
// at the node budget instead of running unbounded.
func TestAllExperimentsTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite integration test")
	}
	ratio := regexp.MustCompile(`^\d+\.\d{3}/\d+\.\d{3}$`)
	for _, e := range Table {
		switch {
		case e.ID == "A1": // every variant runs
		case e.Grid != nil:
			s := e.Grid[1]
			if s.Objects > 0 {
				s.Objects = 4_000
			}
			e.Grid = []Setting{s}
		}
		var buf bytes.Buffer
		opt := Options{Queries: 2, Seed: 3, Scale: 0.0005, NodeBudget: 100_000, Out: &buf}
		e.Print(opt)
		out := buf.String()
		if !strings.Contains(out, "\n== "+e.ID) {
			t.Fatalf("%s: no banner:\n%s", e.ID, out)
		}
		if e.Grid == nil {
			continue
		}
		algos := e.Algos(e.Costs[0])
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			switch {
			case e.Compact && len(f) == len(algos)+4 && f[0] != "cost":
				// cost, |q.ψ|, one time per column, then the approximate column's ratio and %optimal
				if !ratio.MatchString(f[len(f)-2]) {
					t.Fatalf("%s: no ratio in row %q", e.ID, line)
				}
			case !e.Compact && len(f) > 0 && f[0] == "ratio":
				for i, a := range algos {
					if !a.Exact && !ratio.MatchString(f[1+i]) {
						t.Fatalf("%s: no %s ratio in %q", e.ID, a.Name, line)
					}
				}
			}
		}
		if e.ID == "A1" && !regexp.MustCompile(`(?m)^no-pair-prune +\S*\(\d+DNF\)$`).MatchString(out) {
			t.Fatalf("A1: no-pair-prune does not DNF under a %d-node budget:\n%s", opt.NodeBudget, out)
		}
	}
}

func TestSamplesBasics(t *testing.T) {
	var empty samples
	if empty.mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
	s := samples{2, 4, 6}
	if len(s) != 3 || s.mean() != 4 || s.max() != 6 {
		t.Fatalf("mean %v max %v, want 4 and 6", s.mean(), s.max())
	}
}

func TestSamplesFractionAtMost(t *testing.T) {
	s := samples{1, 1, 1, 2, 3}
	if got := s.fractionAtMost(1); got != 0.6 {
		t.Fatalf("fractionAtMost(1) = %v", got)
	}
	if got := s.fractionAtMost(10); got != 1 {
		t.Fatalf("fractionAtMost(10) = %v", got)
	}
}

func TestSamplesMeanMatchesDirectComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s samples
	sum := 0.0
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64()
		s = append(s, v)
		sum += v
	}
	if math.Abs(s.mean()-sum/1000) > 1e-12 {
		t.Fatal("mean drifted")
	}
}

func TestFmtDuration(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want string
	}{
		{200 * time.Second, "200s"},
		{1500 * time.Millisecond, "1.50s"},
		{2 * time.Millisecond, "2ms"},
		{150 * time.Microsecond, "150µs"},
	} {
		if got := fmtDuration(c.d); got != c.want {
			t.Errorf("fmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
