// Package ctxpoll defines an analyzer enforcing the engine's
// cancellation-latency invariant: search loops must poll.
//
// The engine promises (SolveCtx's contract) that cancelling the context
// unwinds a running search within a bounded number of node expansions.
// That only holds if every loop that expands IR-tree entries or pops the
// search priority queue also counts against the budget or polls the
// context — a loop that drains a RelevantNNIterator without calling
// chargeNode or pollCancel can run unbounded work that no deadline can
// interrupt.
package ctxpoll

import (
	"go/ast"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"coskq/internal/analysis/lintutil"
)

const Doc = `check that search and scatter loops poll the budget or the context

Inside the engine package (import path base "core"), any for/range loop
that advances an IR-tree iterator (a Next method on a type from the
irtree package) or pops the search priority queue (a Pop method on a
type from the pqueue package) must, somewhere in its body, call
chargeNode or pollCancel, check ctx.Err()/ctx.Done(), or
call a same-package helper that directly does one of those. Otherwise
the engine's bounded-cancellation-latency contract is broken.

Inside the shard package the same obligation falls on fan-out loops: a
for/range loop that issues Backend data-plane calls (Meta/NN/Collect)
serially must poll the context between shards — otherwise cancelling a
scatter leaves the Router marching through the remaining backends at one
ShardTimeout each. Shard test files are exempt (the differential and
prune suites re-solve shards exhaustively on purpose).`

var Analyzer = &analysis.Analyzer{
	Name:     "ctxpoll",
	Doc:      Doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	coreMode := lintutil.PkgIs(pass.Pkg, "core")
	shardMode := lintutil.PkgIs(pass.Pkg, "shard")
	if !coreMode && !shardMode {
		return nil, nil
	}
	rep := lintutil.NewReporter(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Pre-scan: the package functions that poll directly. Calling one of
	// these from a loop body satisfies the invariant (one level of
	// indirection covers the bestWithOwner-style per-owner sub-searches,
	// which charge every node they expand). The scan descends into
	// function literals: a worker-pool helper whose polling sits inside a
	// recover-wrapped closure still polls on the calling goroutine.
	polling := make(map[string]bool) // by function name; same package only
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil {
			return
		}
		found := false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && isDirectPoll(pass, call) {
				found = true
			}
			return true
		})
		if found {
			polling[decl.Name.Name] = true
		}
	})

	ins.Preorder([]ast.Node{(*ast.ForStmt)(nil), (*ast.RangeStmt)(nil)}, func(n ast.Node) {
		if shardMode && strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go") {
			return
		}
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		}
		if body == nil {
			return
		}
		// Expansion detection stays local to the loop body: a closure
		// defined in the loop that drains its own iterator is a separate
		// loop with its own obligation, not this loop's frontier.
		expands := false
		var expandCall *ast.CallExpr
		lintutil.WalkLocal(body, func(m ast.Node) bool {
			if expands {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok && isExpansion(pass, call, shardMode) {
				expands, expandCall = true, call
			}
			return true
		})
		if !expands {
			return
		}
		// Satisfaction descends into function literals: a loop that
		// polls inside a deferred or spawned closure still keeps its
		// latency bounded.
		satisfied := false
		ast.Inspect(body, func(m ast.Node) bool {
			if satisfied {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok && loopSatisfies(pass, call, polling) {
				satisfied = true
			}
			return true
		})
		if !satisfied {
			msg := "search loop expands nodes but never polls: call chargeNode/pollCancel (or check ctx.Err) in the loop body so cancellation and the node budget stay bounded"
			if shardMode {
				msg = "fan-out loop issues shard calls but never polls: check ctx.Err (or call a polling helper) between backends so a cancelled scatter stops instead of marching through every remaining shard"
			}
			rep.Reportf(expandCall, msg)
		}
	})
	return nil, nil
}

// isExpansion reports whether call advances a search frontier: Next on an
// irtree iterator, Pop on a pqueue queue, or, in the shard package, a
// Backend data-plane call issued from a fan-out loop.
func isExpansion(pass *analysis.Pass, call *ast.CallExpr, shardMode bool) bool {
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "Next":
		return lintutil.PkgIs(fn.Pkg(), "irtree")
	case "Pop":
		return lintutil.PkgIs(fn.Pkg(), "pqueue")
	case "Meta", "NN", "Collect":
		return shardMode && lintutil.IsMethodOn(fn, "shard", "Backend", fn.Name())
	}
	return false
}

// isDirectPoll reports whether call is itself a poll: chargeNode or
// pollCancel from the engine package, or ctx.Err()/ctx.Done().
func isDirectPoll(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "chargeNode", "pollCancel":
		return fn.Pkg() == pass.Pkg
	case "Err", "Done":
		return fn.Pkg() != nil && fn.Pkg().Path() == "context"
	}
	return false
}

// loopSatisfies reports whether a call inside a loop body discharges the
// polling obligation: a direct poll, or a call to a same-package function
// that directly polls.
func loopSatisfies(pass *analysis.Pass, call *ast.CallExpr, polling map[string]bool) bool {
	if isDirectPoll(pass, call) {
		return true
	}
	fn := lintutil.CalleeFunc(pass.TypesInfo, call)
	return fn != nil && fn.Pkg() == pass.Pkg && polling[fn.Name()]
}
