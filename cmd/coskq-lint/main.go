// Command coskq-lint is the repository's static-analysis suite, packaged
// as a go vet tool. It machine-checks the safety invariants listed by
// coskqlint.Analyzers. The first generation guards the engine:
// trace-span balance (spanend), cancellation polling in search loops
// (ctxpoll), centralized distance math (geodist), and structured logging
// in the serving path (slogonly). The second generation guards the
// distributed tier: deterministic output from map iteration (detmaps),
// typed cross-shard errors (errtyped), bounded metric label vocabularies
// (metriclabel), balanced sync.Pool usage (poolscratch), and
// deadline-bearing outbound RPCs (rpcdeadline); the live index adds
// balanced generation pins (epochpin). Run it over the whole repository
// with:
//
//	go build -o bin/coskq-lint ./cmd/coskq-lint
//	go vet -vettool=$PWD/bin/coskq-lint ./...
//
// Each analyzer can be toggled or inspected individually via the
// standard unitchecker flags (coskq-lint help, -ctxpoll=false, ...).
//
// A diagnostic may be suppressed only with a justified comment of the
// form
//
//	//coskq:nolint(analyzer) reason the invariant holds anyway
//
// on the flagged line or the line above it. A suppression that names an
// analyzer but gives no reason is itself reported.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"coskq/internal/analysis/coskqlint"
)

func main() {
	unitchecker.Main(coskqlint.Analyzers()...)
}
