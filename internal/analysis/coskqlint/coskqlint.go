// Package coskqlint assembles the repository's analyzer suite: the
// machine-checked safety invariants of the CoSKQ engine, its distributed
// tier and its live index. cmd/coskq-lint exposes them as a go vet
// -vettool; DESIGN.md maps each analyzer to the contract it guards (§9
// the engine's, §9.1 the three acquire/release rows of package release,
// §14 the distributed tier's).
//
// A diagnostic may be suppressed only with a justified
// //coskq:nolint(analyzer) reason comment (see lintutil); a suppression
// without a reason is itself a finding.
package coskqlint

import (
	"golang.org/x/tools/go/analysis"

	"coskq/internal/analysis/ctxpoll"
	"coskq/internal/analysis/detmaps"
	"coskq/internal/analysis/errtyped"
	"coskq/internal/analysis/geodist"
	"coskq/internal/analysis/metriclabel"
	"coskq/internal/analysis/release"
	"coskq/internal/analysis/rpcdeadline"
	"coskq/internal/analysis/slogonly"
)

// Analyzers returns the full suite in a stable order: the first
// generation (engine invariants, PR 3) followed by the second
// generation (distributed-tier invariants), then the live-index (epoch)
// invariant.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxpoll.Analyzer,
		geodist.Analyzer,
		slogonly.Analyzer,
		release.Spanend,
		detmaps.Analyzer,
		errtyped.Analyzer,
		metriclabel.Analyzer,
		release.Poolscratch,
		rpcdeadline.Analyzer,
		release.Epochpin,
	}
}
