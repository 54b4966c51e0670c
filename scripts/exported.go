//go:build ignore

// exported counts the module's exported symbols: package-level
// functions, types, constants and variables, methods of exported types,
// and the exported fields and interface methods of exported types. Test
// files, testdata directories and nested modules (bench/) are skipped.
//
//	go run scripts/exported.go [root]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || isModule(path)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		n += count(f)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(n)
}

// isModule reports whether dir holds its own go.mod.
func isModule(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

// count returns the exported symbols f declares.
func count(f *ast.File) int {
	if f.Name.Name == "main" {
		return 0 // a command exports nothing
	}
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && (d.Recv == nil || ast.IsExported(recvName(d.Recv.List[0].Type))) {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							n++
						}
					}
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n += 1 + members(s.Type)
					}
				}
			}
		}
	}
	return n
}

// members counts the exported fields of a struct type or the exported
// methods of an interface type.
func members(t ast.Expr) int {
	var list *ast.FieldList
	switch t := t.(type) {
	case *ast.StructType:
		list = t.Fields
	case *ast.InterfaceType:
		list = t.Methods
	default:
		return 0
	}
	n := 0
	for _, f := range list.List {
		if len(f.Names) == 0 { // embedded: named by its type
			if ast.IsExported(recvName(f.Type)) {
				n++
			}
			continue
		}
		for _, id := range f.Names {
			if id.IsExported() {
				n++
			}
		}
	}
	return n
}

// recvName is the base type name of a receiver or embedded field type.
func recvName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
