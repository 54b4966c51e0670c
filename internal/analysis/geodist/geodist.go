// Package geodist defines an analyzer keeping all Euclidean distance
// math inside internal/geo.
//
// The MaxSum and Dia costs the engine optimizes are defined in terms of
// one distance function; the paper's pruning bounds (owner rings, the
// 1.375 / sqrt(3) approximation ratios) are only valid when every
// component measures distance identically. An ad-hoc math.Hypot or
// sqrt(dx*dx+dy*dy) elsewhere can disagree with geo.Point.Dist in the
// last ulps — enough to flip a pruning comparison and return a
// cost-suboptimal set that the differential tests catch only
// probabilistically.
package geodist

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"coskq/internal/analysis/lintutil"
)

const Doc = `forbid inline Euclidean distance math outside internal/geo

All geometry must flow through internal/geo so the MaxSum/Dia costs and
the pruning bounds derived from them stay mutually consistent. The
analyzer reports calls to math.Hypot and inline math.Sqrt(a*a + b*b)
expressions in any package other than the one with import path base
"geo". Test files are exempt (they may spell out expected values).`

var Analyzer = &analysis.Analyzer{
	Name:     "geodist",
	Doc:      Doc,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	rep := lintutil.NewReporter(pass)
	if lintutil.PkgIs(pass.Pkg, "geo") {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if inTestFile(pass.Fset, call.Pos()) {
			return
		}
		fn := lintutil.CalleeFunc(pass.TypesInfo, call)
		if !isMathFunc(fn) {
			return
		}
		switch fn.Name() {
		case "Hypot":
			rep.Reportf(call, "math.Hypot outside internal/geo: route distance math through geo.Point.Dist so costs stay consistent")
		case "Sqrt":
			if len(call.Args) == 1 && isSumOfSquares(pass.Fset, call.Args[0]) {
				rep.Reportf(call, "inline Euclidean distance outside internal/geo: route distance math through geo.Point.Dist so costs stay consistent")
			}
		}
	})
	return nil, nil
}

func isMathFunc(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math"
}

// isSumOfSquares reports whether expr has the shape a*a + b*b (for any
// syntactically identical factor pairs a and b) — the inline Euclidean
// distance idiom.
func isSumOfSquares(fset *token.FileSet, expr ast.Expr) bool {
	sum, ok := ast.Unparen(expr).(*ast.BinaryExpr)
	if !ok || sum.Op != token.ADD {
		return false
	}
	return isSquare(fset, sum.X) && isSquare(fset, sum.Y)
}

func isSquare(fset *token.FileSet, expr ast.Expr) bool {
	mul, ok := ast.Unparen(expr).(*ast.BinaryExpr)
	if !ok || mul.Op != token.MUL {
		return false
	}
	return exprString(fset, mul.X) == exprString(fset, mul.Y)
}

func exprString(fset *token.FileSet, expr ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, expr); err != nil {
		return ""
	}
	return buf.String()
}

func inTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
