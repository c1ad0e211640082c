package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetMerge guards the bit-identical determinism contract of the engine
// packages (docs/performance.md): for a fixed seed a query
// must produce byte-identical scores across runs, GOMAXPROCS values, and
// replicas — followers replay the leader's mutations and are asserted
// equal at equal epochs, so any scheduling- or hash-order dependence in a
// score path is a replication bug, not just flakiness.
//
// Three rules, in internal/core, internal/walk, and internal/push only:
//
//  1. no range over a map that feeds score accumulation — Go randomizes
//     map iteration order, so float reductions in map order differ run
//     to run by rounding;
//  2. no ambient nondeterminism: global math/rand (any use) and
//     time.Now — sampling must come from the engine's seed-derived
//     Walker substreams;
//  3. no scheduling-ordered goroutine collection: results gathered by
//     ranging over a channel or select-looping arrive in completion
//     order — any goroutines these packages start must write into
//     index-addressed slots merged in a fixed order.
var DetMerge = &Analyzer{
	Name: "detmerge",
	Doc:  "deterministic packages must not merge scores in map, scheduling, or wall-clock order",
	PackageSuffixes: []string{
		"internal/core", "internal/walk", "internal/push",
	},
	Run: runDetMerge,
}

func runDetMerge(pass *Pass) {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkRangeMerge(pass, n)
			case *ast.SelectorExpr:
				checkAmbient(pass, n)
			case *ast.ForStmt:
				checkSelectCollect(pass, n)
			}
			return true
		})
	}
}

// checkRangeMerge flags rules 1 and 3 for range statements.
func checkRangeMerge(pass *Pass, rs *ast.RangeStmt) {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		if accumulates(pass, rs.Body) {
			pass.Reportf(rs.Pos(),
				"range over map feeds score accumulation: iteration order is randomized, so the float reduction differs run to run — iterate an ordered slice (e.g. a touched list) instead")
		}
	case *types.Chan:
		if accumulates(pass, rs.Body) || appendsAny(pass, rs.Body) {
			pass.Reportf(rs.Pos(),
				"goroutine results collected in channel-arrival order: completion order is scheduling-dependent — have workers write index-addressed slots and merge in worker order")
		}
	}
}

// checkSelectCollect flags select-loop collection (rule 3): a for loop
// whose select receives from a channel and accumulates or appends.
func checkSelectCollect(pass *Pass, fs *ast.ForStmt) {
	for _, st := range fs.Body.List {
		sel, ok := st.(*ast.SelectStmt)
		if !ok {
			continue
		}
		for _, cl := range sel.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok || comm.Comm == nil {
				continue
			}
			if !isRecv(pass, comm.Comm) {
				continue
			}
			body := &ast.BlockStmt{List: comm.Body}
			if accumulates(pass, body) || appendsAny(pass, body) {
				pass.Reportf(sel.Pos(),
					"select-loop collects goroutine results in completion order: scheduling decides the merge order — have workers write index-addressed slots and merge in worker order")
			}
		}
	}
}

// isRecv reports whether the comm statement receives from a channel.
func isRecv(pass *Pass, comm ast.Stmt) bool {
	switch c := comm.(type) {
	case *ast.AssignStmt:
		for _, r := range c.Rhs {
			if u, ok := r.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return true
			}
		}
	case *ast.ExprStmt:
		if u, ok := c.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return true
		}
	}
	return false
}

// accumulates reports whether the block performs float accumulation:
// x += ..., x -= ..., x *= ..., x /= ... on a float, x = x + ... on a
// float, or append to a float-bearing slice.
func accumulates(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || found {
			return !found
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if len(as.Lhs) == 1 && isFloat(pass.TypeOf(as.Lhs[0])) {
				found = true
			}
		case token.ASSIGN:
			if len(as.Lhs) == 1 && len(as.Rhs) == 1 && isFloat(pass.TypeOf(as.Lhs[0])) &&
				selfReferential(as.Lhs[0], as.Rhs[0]) {
				found = true
			}
		}
		if !found {
			for _, r := range as.Rhs {
				if call, ok := r.(*ast.CallExpr); ok && isAppend(pass, call) &&
					containsFloat(pass.TypeOf(call)) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// appendsAny reports whether the block appends to any slice — for
// channel-collection loops the element type doesn't matter, arrival
// order already corrupts the merge.
func appendsAny(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isAppend(pass, call) {
			found = true
		}
		return !found
	})
	return found
}

// isAppend reports whether call is the builtin append.
func isAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// selfReferential reports whether rhs mentions the lhs expression (the
// x = x + y accumulation shape), compared textually.
func selfReferential(lhs, rhs ast.Expr) bool {
	want := types.ExprString(lhs)
	found := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && types.ExprString(e) == want {
			found = true
		}
		return !found
	})
	return found
}

// checkAmbient flags rule 2: any math/rand use and time.Now.
func checkAmbient(pass *Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	p := pkgNameOf(pass.Info, id)
	if p == nil {
		return
	}
	switch p.Path() {
	case "math/rand", "math/rand/v2":
		pass.Reportf(sel.Pos(),
			"math/rand in a deterministic package: ambient randomness breaks fixed-seed reproducibility — draw from the engine's seed-derived Walker substreams (internal/rnd)")
	case "time":
		if sel.Sel.Name == "Now" {
			pass.Reportf(sel.Pos(),
				"time.Now in a deterministic package: wall-clock reads must not influence results — confine timing to an annotated observability helper")
		}
	}
}
