package release_test

import (
	"testing"

	"golang.org/x/tools/go/analysis"

	"coskq/internal/analysis/analyzertest"
	"coskq/internal/analysis/release"
)

// Each row over the fixture tree it had as a package of its own.
func TestSpanend(t *testing.T)     { analyzertest.Run(t, "testdata", release.Spanend, "a") }
func TestPoolscratch(t *testing.T) { analyzertest.Run(t, "testdata", release.Poolscratch, "pool") }
func TestEpochpin(t *testing.T)    { analyzertest.Run(t, "testdata", release.Epochpin, "epoch") }

// TestRowsTogether runs all three rows over every fixture package: each
// diagnostic must come from the row the want names (package cross leaks
// a span, a pooled object and a pin from one function), and no row fires
// on another row's fixtures.
func TestRowsTogether(t *testing.T) {
	rows := []*analysis.Analyzer{release.Spanend, release.Poolscratch, release.Epochpin}
	analyzertest.RunSuite(t, "testdata", rows, "a", "pool", "epoch", "cross")
}
