package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow guards cancellation plumbing: an exported function that accepts
// a context.Context promises callers that deadlines and disconnects
// interrupt it. A loop inside such a function that neither consults the
// context nor calls anything that takes it can run to completion after
// the caller has gone — the bug class PR 1 fixed by hand across all six
// baseline algorithms (walk batches, push levels, gamma loops all check
// ctx per batch now). This keeps it fixed.
//
// A loop passes if anything inside it uses a context-typed value: a
// ctx.Err()/ctx.Done() check, passing ctx (or a derived context) to a
// callee, or a select on ctx.Done. The check honors the repo's per-batch
// granularity: an inner loop is exempt when an enclosing loop observes
// the context each iteration — the enclosing check bounds the stale work
// to one batch, which is the documented contract (docs/performance.md,
// "Cancellation contract").
// Loops that cannot block are also exempt: bodies whose only calls are
// builtins or conversions, with no nested loops or channel operations,
// and ranges over slices of functions (option-application loops).
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "exported ctx-taking functions must let the context interrupt their loops",
	SkipPackageSuffixes: []string{
		"internal/lint", // the linter itself is driven by a CLI, not servers
	},
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if !exportedReceiver(fd) {
				continue
			}
			if !takesContext(pass, fd) {
				continue
			}
			checkLoops(pass, fd)
		}
	}
}

// exportedReceiver reports whether fd is a plain function or a method on
// an exported type; exported methods of unexported types are not part of
// the package API.
func exportedReceiver(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}

// takesContext reports whether fd has a context.Context parameter.
func takesContext(pass *Pass, fd *ast.FuncDecl) bool {
	for _, p := range fd.Type.Params.List {
		if isContextType(pass.TypeOf(p.Type)) {
			return true
		}
	}
	return false
}

// checkLoops flags every loop in fd that could block without observing
// the context, honoring per-batch coverage from enclosing loops.
func checkLoops(pass *Pass, fd *ast.FuncDecl) {
	var visit func(n ast.Node, covered bool)
	visit = func(n ast.Node, covered bool) {
		var body *ast.BlockStmt
		skip := false
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			skip = funcSliceRange(pass, loop)
			body = loop.Body
		default:
			children(n, func(c ast.Node) { visit(c, covered) })
			return
		}
		ok := covered || usesContext(pass, body)
		if !ok && !skip && !trivialLoop(pass, body) {
			pass.Reportf(n.Pos(),
				"%s accepts a context but this loop never observes it: a cancelled caller keeps paying for the work — check ctx.Err() per iteration batch or pass ctx into the loop body", fd.Name.Name)
		}
		children(body, func(c ast.Node) { visit(c, ok) })
	}
	for _, st := range fd.Body.List {
		visit(st, false)
	}
}

// funcSliceRange reports whether rs ranges over a slice of functions —
// the variadic-option application idiom, exempt by design.
func funcSliceRange(pass *Pass, rs *ast.RangeStmt) bool {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	_, isFunc := sl.Elem().Underlying().(*types.Signature)
	return isFunc
}

// trivialLoop reports whether the body cannot meaningfully block: no
// calls other than builtins and type conversions, no channel operations,
// no nested loops.
func trivialLoop(pass *Pass, body *ast.BlockStmt) bool {
	blocking := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !builtinOrConversion(pass, n) {
				blocking = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.SendStmt, *ast.GoStmt:
			blocking = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				blocking = true
			}
		}
		return !blocking
	})
	return !blocking
}

// builtinOrConversion reports whether call invokes a builtin (len, cap,
// append, ...) or is a type conversion — neither can block.
func builtinOrConversion(pass *Pass, call *ast.CallExpr) bool {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, ok := pass.Info.Uses[fun].(*types.Builtin); ok {
			return true
		}
	case *ast.SelectorExpr:
		if tv, ok := pass.Info.Types[fun]; ok && tv.IsType() {
			return true
		}
	}
	return false
}

// usesContext reports whether any identifier of type context.Context is
// used inside the node — covering ctx.Err()/ctx.Done() checks, passing
// ctx to callees, and selects on derived contexts alike.
func usesContext(pass *Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return !found
		}
		if obj := pass.Info.Uses[id]; obj != nil && isContextType(obj.Type()) {
			found = true
		}
		return !found
	})
	return found
}
