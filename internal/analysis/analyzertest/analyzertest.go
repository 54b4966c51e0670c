// Package analyzertest is a self-contained, offline analogue of
// golang.org/x/tools/go/analysis/analysistest, sized to what coskq-lint
// needs. (The real analysistest depends on go/packages, which is not
// part of the toolchain's vendored x/tools subset this repo builds
// against — see vendor/modules.txt.)
//
// Fixtures follow the analysistest layout: each analyzer directory holds
// testdata/src/<pkg>/*.go, packages may import each other by those short
// paths ("core", "trace", ...), and expectations are written as
//
//	code // want "regexp"
//
// comments. Run loads the named packages with go/types (stdlib imports
// resolve through the toolchain's export data, fixture imports through
// testdata/src), runs the analyzer and its Requires graph, and fails the
// test on any unmatched diagnostic or unsatisfied want.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run loads each named fixture package from dir/src (dir is normally
// "testdata") and checks a's diagnostics against the // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	run(t, dir, []*analysis.Analyzer{a}, false, pkgs)
}

// RunSuite checks the diagnostics of several analyzers over the same
// fixture packages at once. Each message is matched as "name: message",
// so a want can pin which analyzer reports (// want "spanend: span sp")
// and a fixture written for one analyzer also proves the others silent.
func RunSuite(t *testing.T, dir string, suite []*analysis.Analyzer, pkgs ...string) {
	t.Helper()
	run(t, dir, suite, true, pkgs)
}

func run(t *testing.T, dir string, suite []*analysis.Analyzer, named bool, pkgs []string) {
	t.Helper()
	if err := analysis.Validate(suite); err != nil {
		t.Fatalf("invalid analyzer: %v", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := &loader{
		fset: token.NewFileSet(),
		src:  filepath.Join(abs, "src"),
		pkgs: make(map[string]*fixturePkg),
		std:  importer.Default(),
	}
	for _, path := range pkgs {
		p, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture package %q: %v", path, err)
		}
		var all []analysis.Diagnostic
		for _, a := range suite {
			diags, err := runGraph(l, p, a)
			if err != nil {
				t.Fatalf("running %s on %q: %v", a.Name, path, err)
			}
			for _, d := range diags {
				if named {
					d.Message = a.Name + ": " + d.Message
				}
				all = append(all, d)
			}
		}
		checkWants(t, l.fset, p, all)
	}
}

// fixturePkg is one type-checked fixture package.
type fixturePkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader resolves fixture imports from testdata/src and everything else
// from the toolchain's export data.
type loader struct {
	fset *token.FileSet
	src  string
	pkgs map[string]*fixturePkg
	std  types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.pkg, nil
	}
	if _, err := os.Stat(filepath.Join(l.src, path)); err == nil {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) (*fixturePkg, error) {
	dir := filepath.Join(l.src, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &fixturePkg{path: path, files: files, pkg: pkg, info: info}
	l.pkgs[path] = p
	return p, nil
}

// runGraph runs a and its transitive Requires on p in dependency order
// and returns the diagnostics reported by a itself.
func runGraph(l *loader, p *fixturePkg, a *analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	results := make(map[*analysis.Analyzer]interface{})
	facts := newFactStore()
	var exec func(an *analysis.Analyzer) error
	exec = func(an *analysis.Analyzer) error {
		if _, done := results[an]; done {
			return nil
		}
		for _, req := range an.Requires {
			if err := exec(req); err != nil {
				return err
			}
		}
		resultOf := make(map[*analysis.Analyzer]interface{}, len(an.Requires))
		for _, req := range an.Requires {
			resultOf[req] = results[req]
		}
		pass := &analysis.Pass{
			Analyzer:   an,
			Fset:       l.fset,
			Files:      p.files,
			Pkg:        p.pkg,
			TypesInfo:  p.info,
			TypesSizes: types.SizesFor("gc", "amd64"),
			ResultOf:   resultOf,
			Report: func(d analysis.Diagnostic) {
				if an == a {
					diags = append(diags, d)
				}
			},
			ReadFile:          os.ReadFile,
			ImportObjectFact:  facts.importObjectFact,
			ExportObjectFact:  facts.exportObjectFact,
			ImportPackageFact: facts.importPackageFact,
			ExportPackageFact: func(fact analysis.Fact) { facts.exportPackageFact(p.pkg, fact) },
			AllObjectFacts:    func() []analysis.ObjectFact { return nil },
			AllPackageFacts:   func() []analysis.PackageFact { return nil },
		}
		res, err := an.Run(pass)
		if err != nil {
			return fmt.Errorf("%s: %w", an.Name, err)
		}
		if an.ResultType != nil && res != nil && !reflect.TypeOf(res).AssignableTo(an.ResultType) {
			return fmt.Errorf("%s returned %T, want %s", an.Name, res, an.ResultType)
		}
		results[an] = res
		return nil
	}
	if err := exec(a); err != nil {
		return nil, err
	}
	return diags, nil
}

// factStore is a minimal in-memory fact table; cross-package facts are
// absent (fixture dependencies are loaded but not analyzed), which is
// the conservative direction for every analyzer in this suite.
type factStore struct {
	obj map[types.Object][]analysis.Fact
	pkg map[*types.Package][]analysis.Fact
}

func newFactStore() *factStore {
	return &factStore{
		obj: make(map[types.Object][]analysis.Fact),
		pkg: make(map[*types.Package][]analysis.Fact),
	}
}

func copyFact(dst analysis.Fact, src analysis.Fact) bool {
	if reflect.TypeOf(src) != reflect.TypeOf(dst) {
		return false
	}
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
	return true
}

func (s *factStore) importObjectFact(obj types.Object, fact analysis.Fact) bool {
	for _, f := range s.obj[obj] {
		if copyFact(fact, f) {
			return true
		}
	}
	return false
}

func (s *factStore) exportObjectFact(obj types.Object, fact analysis.Fact) {
	s.obj[obj] = append(s.obj[obj], fact)
}

func (s *factStore) importPackageFact(pkg *types.Package, fact analysis.Fact) bool {
	for _, f := range s.pkg[pkg] {
		if copyFact(fact, f) {
			return true
		}
	}
	return false
}

func (s *factStore) exportPackageFact(pkg *types.Package, fact analysis.Fact) {
	s.pkg[pkg] = append(s.pkg[pkg], fact)
}

// want is one expectation parsed from a // want comment.
type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

// checkWants compares diagnostics against the fixture's want comments.
func checkWants(t *testing.T, fset *token.FileSet, p *fixturePkg, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quotedRE.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Errorf("%s: bad want pattern %s: %v", pos, q, err)
						continue
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.matched, ok = true, true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		return wants[i].file < wants[j].file || (wants[i].file == wants[j].file && wants[i].line < wants[j].line)
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}
