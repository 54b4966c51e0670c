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
// directory relative to the module root. bad is a file the rule must
// reject when it sits in badDir.
type sourceRule struct {
	name   string
	check  func(dir string, f *ast.File) []ast.Node
	bad    string
	badDir string
}

var sourceRules = []sourceRule{
	{
		// One distance formulation: every Euclidean distance is computed
		// by internal/geo, so the pruning bounds and the answers they
		// bound agree to the bit.
		name: "distance_in_geo",
		check: func(dir string, f *ast.File) []ast.Node {
			if dir == "internal/geo" {
				return nil
			}
			m := importName(f, "math")
			return find(f, func(n ast.Node) bool {
				if isSel(n, m, "Hypot") {
					return true
				}
				call, ok := n.(*ast.CallExpr)
				return ok && isSel(call.Fun, m, "Sqrt") && len(call.Args) == 1 && isSumOfSquares(call.Args[0])
			})
		},
		bad:    "package p\nimport \"math\"\nfunc d(dx, dy float64) float64 { return math.Sqrt(dx*dx + dy*dy) }\n",
		badDir: "internal/core",
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
		bad:    "package p\nimport \"net/http\"\nfunc f() { http.Get(\"http://peer/shard/nn\") }\n",
		badDir: "internal/client",
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
		bad:    "package p\nimport \"log\"\nfunc f() { log.Printf(\"request\") }\n",
		badDir: "internal/server",
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
		bad:    "package p\nimport _ \"coskq/internal/rtree\"\n",
		badDir: "internal/core",
	},
	{
		// internal/testutil holds test helpers; no production build
		// graph links it.
		name: "no_testutil",
		check: func(_ string, f *ast.File) []ast.Node {
			return importsOf(f, "coskq/internal/testutil")
		},
		bad:    "package p\nimport \"coskq/internal/testutil\"\nvar _ = testutil.CheckGoroutineLeaks\n",
		badDir: "internal/server",
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
			bad, err := parser.ParseFile(token.NewFileSet(), "bad.go", r.bad, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.check(r.badDir, bad)) == 0 {
				t.Fatalf("rule does not fire on its violating snippet in %s:\n%s", r.badDir, r.bad)
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
