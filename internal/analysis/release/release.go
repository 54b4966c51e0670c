// Package release defines the three acquire/release analyzers of the
// coskq-lint suite — spanend, poolscratch and epochpin — as three rows
// (rows.go) over one all-paths engine: a resource handed out by an
// acquire call must be released on every control-flow path through the
// acquiring function, normally by a deferred release, or handed to a new
// owner.
//
// The engine has one acquisition scan (result assigned, discarded, or
// bound to _), one deferred-release scan (direct, or inside a deferred
// closure) and one control-flow search for a return the resource reaches
// unreleased. A row says only what differs between the contracts: which
// calls acquire, which release, whether passing the resource to a call
// hands it over, whether it may leave the function through a global or a
// channel, and whether a statically nil handle carries no obligation.
package release

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"coskq/internal/analysis/lintutil"
)

// spec is one row: an acquire/release contract and its diagnostics.
type spec struct {
	name, doc string

	// acquire reports whether a call to fn hands its caller a resource.
	acquire func(fn *types.Func) bool
	// methods names the methods that release their receiver: v.M() is a
	// release, acquire().M() is balanced on the spot, and the method
	// value v.M stands for v wherever v itself would transfer.
	methods []string
	// releaseFn reports whether a call fn(v) releases its argument v.
	releaseFn func(fn *types.Func) bool
	// wrappers extends acquire and releaseFn to same-package functions
	// that return what they acquire or release one of their parameters.
	wrappers bool

	// argTransfers: passing the resource to any call hands it over.
	// Returning it, storing it (alias, field, element, composite-literal
	// element) and sending it on a channel transfer in every row.
	argTransfers bool
	// nilFree: a branch on which the handle is statically nil carries
	// no obligation.
	nilFree bool

	discarded string // no holder at all
	leaked    string // args: variable name, line of the leaking return
	// escapeGlobal (args: variable, global) and escapeChan (args:
	// variable), when set, report a resource that leaves the function
	// through a package-level variable or a channel.
	escapeGlobal, escapeChan string
}

func (s *spec) analyzer() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:     s.name,
		Doc:      s.doc,
		Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
		Run:      s.run,
	}
}

// checker is one row applied to one package.
type checker struct {
	*spec
	pass *analysis.Pass
	rep  *lintutil.Reporter
	// Same-package wrappers found by findWrappers (rows with wrappers).
	acquirers, releasers map[*types.Func]bool
}

func (s *spec) run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{spec: s, pass: pass, rep: lintutil.NewReporter(pass)}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	if s.wrappers {
		c.findWrappers(ins)
	}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		// Test files are exempt: tests leak on purpose to exercise the
		// cleanup paths (Trace.Finish, pool regrowth, pin gauges).
		if strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go") {
			return
		}
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				c.checkFunc(n.Body, cfgs.FuncDecl(n))
			}
		case *ast.FuncLit:
			c.checkFunc(n.Body, cfgs.FuncLit(n))
		}
	})
	return nil, nil
}

// findWrappers records the same-package acquirer wrappers (a function
// that returns what it directly acquires, or the variable that was
// assigned to: the getOwnerScratch shape) and releaser wrappers (a
// function that releases one of its own parameters: putOwnerScratch).
func (c *checker) findWrappers(ins *inspector.Inspector) {
	info := c.pass.TypesInfo
	acquirers, releasers := make(map[*types.Func]bool), make(map[*types.Func]bool)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		fn, _ := info.Defs[decl.Name].(*types.Func)
		if fn == nil || decl.Body == nil {
			return
		}
		// acquiresIn: e contains an acquire, possibly under a type
		// assertion (the pool.Get().(*T) idiom).
		acquiresIn := func(e ast.Expr) bool {
			return contains(e, false, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				return ok && c.acquires(call)
			})
		}
		got := make(map[types.Object]bool)
		lintutil.WalkLocal(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 && acquiresIn(n.Rhs[0]) {
					if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						got[info.ObjectOf(id)] = true
					}
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					id, _ := ast.Unparen(res).(*ast.Ident)
					if acquiresIn(res) || (id != nil && got[info.Uses[id]]) {
						acquirers[fn] = true
					}
				}
			}
			return true
		})
		params := fn.Type().(*types.Signature).Params()
		for i := 0; i < params.Len() && !releasers[fn]; i++ {
			if contains(decl.Body, false, func(n ast.Node) bool { return c.releases(n, params.At(i)) }) {
				releasers[fn] = true
			}
		}
	})
	// Published only now: a wrapper of a wrapper does not count.
	c.acquirers, c.releasers = acquirers, releasers
}

// acquires reports whether call hands out a resource.
func (c *checker) acquires(call *ast.CallExpr) bool {
	fn := lintutil.CalleeFunc(c.pass.TypesInfo, call)
	return fn != nil && (c.acquire(fn) || c.acquirers[fn])
}

// releases reports whether n is a call releasing v: v.M() for a release
// method M, or f(v) for a releasing function f.
func (c *checker) releases(n ast.Node, v types.Object) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
		slices.Contains(c.methods, sel.Sel.Name) && c.is(sel.X, v) {
		return true
	}
	fn := lintutil.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil || c.releaseFn == nil || !(c.releaseFn(fn) || c.releasers[fn]) {
		return false
	}
	return slices.ContainsFunc(call.Args, func(arg ast.Expr) bool { return c.is(arg, v) })
}

// is reports whether e is the variable v itself.
func (c *checker) is(e ast.Expr, v types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && c.pass.TypesInfo.Uses[id] == v
}

// holds reports whether e is v in a form that, stored or sent, gives
// the receiver a hold on the resource: v, &v, or the release method
// value v.M. Reading a field off v (eng := v.Eng) is a borrow.
func (c *checker) holds(e ast.Expr, v types.Object) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		return x.Op == token.AND && c.is(x.X, v)
	case *ast.SelectorExpr:
		return slices.Contains(c.methods, x.Sel.Name) && c.is(x.X, v)
	}
	return c.is(e, v)
}

// mentions reports whether n refers to v anywhere.
func (c *checker) mentions(n ast.Node, v types.Object) bool {
	return contains(n, false, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && c.pass.TypesInfo.Uses[id] == v
	})
}

// contains reports whether pred holds for any node of the tree under n;
// local stops the walk at nested function literals, whose bodies run on
// their own schedule (lintutil.WalkLocal).
func contains(n ast.Node, local bool, pred func(ast.Node) bool) bool {
	found := false
	visit := func(n ast.Node) bool {
		found = found || (n != nil && pred(n))
		return !found
	}
	if local {
		lintutil.WalkLocal(n, visit)
	} else {
		ast.Inspect(n, visit)
	}
	return found
}

// checkFunc applies the row to one function body; nested function
// literals are visited on their own.
func (c *checker) checkFunc(body *ast.BlockStmt, g *cfg.CFG) {
	type held struct {
		v    types.Object
		stmt *ast.AssignStmt
	}
	var helds []held
	discard := func(call *ast.CallExpr) { c.rep.Reportf(call, "%s", c.discarded) }
	lintutil.WalkLocal(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				break
			}
			// acquire().M(): balanced if M releases, else the resource
			// has no holder. An acquire deeper in an expression escapes.
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if inner, ok := ast.Unparen(sel.X).(*ast.CallExpr); ok && c.acquires(inner) {
					if !slices.Contains(c.methods, sel.Sel.Name) {
						discard(inner)
					}
					break
				}
			}
			if c.acquires(call) {
				discard(call)
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				break
			}
			rhs := ast.Unparen(n.Rhs[0])
			if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
				rhs = ast.Unparen(ta.X) // pool.Get().(*T)
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !c.acquires(call) {
				break
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			switch {
			case !ok:
				// Stored straight into a field or element: the owner of
				// that struct now owns the resource.
			case id.Name == "_":
				discard(call)
			default:
				if v := c.pass.TypesInfo.ObjectOf(id); v != nil {
					helds = append(helds, held{v, n})
				}
			}
		}
		return true
	})

	for _, h := range helds {
		if c.escapeGlobal != "" {
			c.reportEscapes(body, h.v)
		}
		// A deferred release anywhere discharges the obligation on every
		// path, panic-unwind included.
		if c.deferredRelease(body, h.v) {
			continue
		}
		if ret := leakPath(c, g, h.v, h.stmt); ret != nil {
			c.rep.Reportf(h.stmt, c.leaked, h.v.Name(), c.pass.Fset.Position(ret.Pos()).Line)
		}
	}
}

// reportEscapes reports v reaching a package-level variable or a
// channel: a holder nobody tracks.
func (c *checker) reportEscapes(body *ast.BlockStmt, v types.Object) {
	lintutil.WalkLocal(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) || !c.is(n.Rhs[i], v) {
					continue
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := c.pass.TypesInfo.Uses[id]; obj != nil && obj.Parent() == c.pass.Pkg.Scope() {
						c.rep.Reportf(n, c.escapeGlobal, v.Name(), id.Name)
					}
				}
			}
		case *ast.SendStmt:
			if c.is(n.Value, v) {
				c.rep.Reportf(n, c.escapeChan, v.Name())
			}
		}
		return true
	})
}

// deferredRelease reports whether body defers a release of v, directly
// or inside a deferred closure (the exact.go shape).
func (c *checker) deferredRelease(body *ast.BlockStmt, v types.Object) bool {
	releases := func(n ast.Node) bool { return c.releases(n, v) }
	return contains(body, true, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return false
		}
		lit, ok := def.Call.Fun.(*ast.FuncLit)
		return releases(def.Call) || (ok && contains(lit.Body, false, releases))
	})
}

// discharges reports whether node n releases v or hands it to a new
// owner. Field writes on v (v.buf = v.buf[:0]), field reads off it and —
// unless the row says otherwise — passing it as an argument are borrows:
// the obligation stays with v.
func (c *checker) discharges(n ast.Node, v types.Object) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		return c.releases(n, v) || (c.argTransfers &&
			slices.ContainsFunc(n.Args, func(arg ast.Expr) bool { return c.mentions(arg, v) }))
	case *ast.ReturnStmt:
		// Returning the handle, its release method value or a closure
		// over it all make the caller the owner.
		return slices.ContainsFunc(n.Results, func(res ast.Expr) bool { return c.mentions(res, v) })
	case *ast.AssignStmt:
		return slices.ContainsFunc(n.Rhs, func(rhs ast.Expr) bool { return c.holds(rhs, v) })
	case *ast.CompositeLit:
		// T{f: v} stores v; T{f: v.Gen} only reads a field off it.
		return slices.ContainsFunc(n.Elts, func(e ast.Expr) bool {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				e = kv.Value
			}
			return c.holds(e, v)
		})
	case *ast.SendStmt:
		// Rows with escape reports flag the send there; either way it is
		// not also a leak here.
		return c.holds(n.Value, v)
	}
	return false
}

// leakPath finds a control-flow path from the acquisition stmt to a
// return on which v is neither released nor transferred, and returns
// that return statement; nil if every path discharges the obligation.
func leakPath(c *checker, g *cfg.CFG, v types.Object, stmt ast.Node) *ast.ReturnStmt {
	discharges := func(nodes []ast.Node) bool {
		return slices.ContainsFunc(nodes, func(s ast.Node) bool {
			return contains(s, true, func(n ast.Node) bool { return c.discharges(n, v) })
		})
	}

	// Locate the acquiring block and the statements after the acquisition.
	var defblock *cfg.Block
	var rest []ast.Node
outer:
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n == stmt {
				defblock, rest = b, b.Nodes[i+1:]
				break outer
			}
		}
	}
	if defblock == nil {
		return nil // acquisition not in the CFG (dead code)
	}
	if discharges(rest) {
		return nil
	}
	if ret := defblock.Return(); ret != nil {
		return ret
	}

	// Depth-first over the successors, each block once; a block that
	// discharges v ends its path.
	seen := make(map[*cfg.Block]bool)
	var search func(blocks []*cfg.Block) *ast.ReturnStmt
	search = func(blocks []*cfg.Block) *ast.ReturnStmt {
		for _, b := range blocks {
			if seen[b] {
				continue
			}
			seen[b] = true
			if discharges(b.Nodes) {
				continue
			}
			if ret := b.Return(); ret != nil {
				return ret
			}
			if ret := search(c.liveSuccs(b, v)); ret != nil {
				return ret
			}
		}
		return nil
	}
	return search(c.liveSuccs(defblock, v))
}

// liveSuccs returns b's successors, minus — in a nilFree row — the
// branch on which v is statically nil: when b ends in the condition
// "v != nil" (or "v == nil"), the branch taken with v nil is dropped.
// Span methods are nil-safe and a nil span (tracing disabled, span budget
// exhausted) has nothing to close, so the engine's batching idiom
// "if sp != nil { sp.Attr(...); sp.End() }" must not be reported.
func (c *checker) liveSuccs(b *cfg.Block, v types.Object) []*cfg.Block {
	if !c.nilFree || len(b.Succs) != 2 || len(b.Nodes) == 0 {
		return b.Succs
	}
	cond, ok := b.Nodes[len(b.Nodes)-1].(*ast.BinaryExpr)
	if !ok || (cond.Op != token.EQL && cond.Op != token.NEQ) {
		return b.Succs
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		_, isNilConst := c.pass.TypesInfo.Uses[id].(*types.Nil)
		return isNilConst
	}
	if !(c.is(cond.X, v) && isNil(cond.Y)) && !(isNil(cond.X) && c.is(cond.Y, v)) {
		return b.Succs
	}
	// Succs[0] is the then-branch. For "v != nil" the nil path is the
	// else-branch; for "v == nil" it is the then-branch.
	if cond.Op == token.NEQ {
		return b.Succs[:1]
	}
	return b.Succs[1:]
}
