package coskq_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// sourceRule is one rule over the module's non-test Go source. check
// returns the nodes of f that break it; dir is f's slash-separated
// directory relative to the module root. bad maps a directory to a file
// the rule must reject when it sits there.
type sourceRule struct {
	name  string
	check func(dir string, f *ast.File) []ast.Node
	bad   map[string]string
}

var sourceRules = []sourceRule{
	{
		// One distance formulation: every Euclidean distance is the
		// square root of internal/geo's sum of squares, so the pruning
		// bounds and the answers they bound agree to the bit. math.Hypot
		// rounds differently and is out everywhere, internal/geo included.
		name: "distance_in_geo",
		check: func(dir string, f *ast.File) []ast.Node {
			m := importName(f, "math")
			return find(f, func(n ast.Node) bool {
				if isSel(n, m, "Hypot") {
					return true
				}
				call, ok := n.(*ast.CallExpr)
				return ok && dir != "internal/geo" && isSel(call.Fun, m, "Sqrt") && len(call.Args) == 1 && isSumOfSquares(call.Args[0])
			})
		},
		bad: map[string]string{
			"internal/core": "package p\nimport \"math\"\nfunc d(dx, dy float64) float64 { return math.Sqrt(dx*dx + dy*dy) }\n",
			"internal/geo":  "package geo\nimport \"math\"\nfunc d(dx, dy float64) float64 { return math.Hypot(dx, dy) }\n",
		},
	},
	{
		// Every outbound HTTP call carries the caller's context and runs
		// on a client with a timeout.
		name: "http_with_deadline",
		check: func(_ string, f *ast.File) []ast.Node {
			h := importName(f, "net/http")
			return find(f, func(n ast.Node) bool {
				for _, sel := range []string{"DefaultClient", "Get", "Head", "Post", "PostForm", "NewRequest"} {
					if isSel(n, h, sel) {
						return true
					}
				}
				return false
			})
		},
		bad: map[string]string{"internal/client": "package p\nimport \"net/http\"\nfunc f() { http.Get(\"http://peer/shard/nn\") }\n"},
	},
	{
		// The server logs only through log/slog, as structured records.
		name: "slog_only",
		check: func(dir string, f *ast.File) []ast.Node {
			if !under(dir, "internal/server") && !under(dir, "cmd/coskq-server") {
				return nil
			}
			return importsOf(f, "log")
		},
		bad: map[string]string{"internal/server": "package p\nimport \"log\"\nfunc f() { log.Printf(\"request\") }\n"},
	},
	{
		// internal/rtree is a shim kept only for the bench/ module.
		name: "no_rtree_shim",
		check: func(dir string, f *ast.File) []ast.Node {
			if under(dir, "internal/rtree") {
				return nil
			}
			return importsOf(f, "coskq/internal/rtree")
		},
		bad: map[string]string{"internal/core": "package p\nimport _ \"coskq/internal/rtree\"\n"},
	},
	{
		// internal/testutil holds test helpers; no production build
		// graph links it.
		name: "no_testutil",
		check: func(_ string, f *ast.File) []ast.Node {
			return importsOf(f, "coskq/internal/testutil")
		},
		bad: map[string]string{"internal/server": "package p\nimport \"coskq/internal/testutil\"\nvar _ = testutil.CheckGoroutineLeaks\n"},
	},
}

// TestSourceRules checks every rule against its violating snippet, then
// against each non-test, non-testdata Go file of this module. bench/ is
// a module of its own and is not walked.
func TestSourceRules(t *testing.T) {
	type file struct {
		dir string
		f   *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 50 {
		t.Fatalf("walked %d files; is the test running from the module root?", len(files))
	}
	for _, r := range sourceRules {
		t.Run(r.name, func(t *testing.T) {
			for dir, src := range r.bad {
				bad, err := parser.ParseFile(token.NewFileSet(), "bad.go", src, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(r.check(dir, bad)) == 0 {
					t.Fatalf("rule does not fire on its violating snippet in %s:\n%s", dir, src)
				}
			}
			for _, f := range files {
				for _, n := range r.check(f.dir, f.f) {
					t.Errorf("%s: breaks %s", fset.Position(n.Pos()), r.name)
				}
			}
		})
	}
}

// importName returns the name f refers to the package path by, or ""
// when f does not import it.
func importName(f *ast.File, path string) string {
	for _, s := range f.Imports {
		if p, _ := strconv.Unquote(s.Path.Value); p == path {
			if s.Name != nil {
				return s.Name.Name
			}
			return path[strings.LastIndexByte(path, '/')+1:]
		}
	}
	return ""
}

// importsOf returns f's import specs of path.
func importsOf(f *ast.File, path string) []ast.Node {
	var out []ast.Node
	for _, s := range f.Imports {
		if p, _ := strconv.Unquote(s.Path.Value); p == path {
			out = append(out, s)
		}
	}
	return out
}

// find returns the nodes of f that match.
func find(f *ast.File, match func(ast.Node) bool) []ast.Node {
	var out []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n != nil && match(n) {
			out = append(out, n)
		}
		return true
	})
	return out
}

// isSel reports whether n is the selector pkg.name, pkg being a package
// name ("" never matches).
func isSel(n ast.Node, pkg, name string) bool {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok || pkg == "" || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// isSumOfSquares reports whether e has the shape a*a + b*b.
func isSumOfSquares(e ast.Expr) bool {
	sum, ok := ast.Unparen(e).(*ast.BinaryExpr)
	return ok && sum.Op == token.ADD && isSquare(sum.X) && isSquare(sum.Y)
}

func isSquare(e ast.Expr) bool {
	m, ok := ast.Unparen(e).(*ast.BinaryExpr)
	return ok && m.Op == token.MUL && types.ExprString(m.X) == types.ExprString(m.Y)
}

// under reports whether dir is root or lies beneath it.
func under(dir, root string) bool {
	return dir == root || strings.HasPrefix(dir, root+"/")
}
