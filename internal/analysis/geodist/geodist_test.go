package geodist_test

import (
	"testing"

	"coskq/internal/analysis/analyzertest"
	"coskq/internal/analysis/geodist"
)

func TestAnalyzer(t *testing.T) {
	analyzertest.Run(t, "testdata", geodist.Analyzer, "a", "geo", "rtree")
}
