package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// EpochKey guards the structural-invalidation contract of the serving
// cache (docs/http-api.md, internal/cache): a cached result is only safe
// to return because the graph epoch it was computed on is part of its
// key. A key built without the epoch silently serves stale scores after
// the first mutation — the exact failure mode the epoch-in-key design
// exists to make unrepresentable.
//
// Three rules:
//
//  1. every internal/cache Do call site must build its key from
//     an epoch-bearing value (an identifier, field, or call with "epoch"
//     in its name, e.g. view.Epoch());
//  2. no new score-shaped map caches outside internal/cache: a variable
//     or field named like a cache (cache/memo) whose type is a map
//     holding floats bypasses the epoch key entirely;
//  3. no assignment to the Epoch field of an existing cache.Key outside
//     internal/cache: re-keying an entry to a different epoch re-labels
//     a result as computed on a graph state it never saw. The one
//     audited re-key path is Cache.CarryForward, which only re-keys
//     entries its caller proved bit-identical across the epoch advance —
//     everything else must build a fresh key and recompute.
var EpochKey = &Analyzer{
	Name: "epochkey",
	Doc:  "cache keys must embed the graph epoch; score caches belong in internal/cache",
	SkipPackageSuffixes: []string{
		"internal/cache", // the cache itself manipulates keys structurally
		"internal/lint",  // this package quotes the patterns it flags
	},
	Run: runEpochKey,
}

// cacheNameRE matches identifiers that announce caching intent.
var cacheNameRE = regexp.MustCompile(`(?i)(cache|memo)`)

func runEpochKey(pass *Pass) {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCacheCall(pass, f, n)
			case *ast.ValueSpec:
				for _, id := range n.Names {
					checkScoreMap(pass, id)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						checkScoreMap(pass, id)
					}
					checkEpochRekey(pass, lhs)
				}
			case *ast.Field:
				for _, id := range n.Names {
					checkScoreMap(pass, id)
				}
			}
			return true
		})
	}
}

// checkScoreMap flags cache-named float-map declarations (rule 2).
func checkScoreMap(pass *Pass, id *ast.Ident) {
	obj := pass.Info.Defs[id]
	if obj == nil || !cacheNameRE.MatchString(id.Name) {
		return
	}
	t := obj.Type()
	if !isMap(t) || !containsFloat(t) {
		return
	}
	pass.Reportf(id.Pos(),
		"score map %q outside internal/cache: cached scores must live in the epoch-keyed serving cache (or carry a lint:allow with the epoch-safety argument)", id.Name)
}

// checkEpochRekey flags assignments to the Epoch field of a cache.Key
// (rule 3): outside the audited CarryForward path, mutating a key's
// epoch re-labels a cached result as belonging to a graph state it was
// never computed on.
func checkEpochRekey(pass *Pass, lhs ast.Expr) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Epoch" {
		return
	}
	t := pass.Info.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !namedIs(named, "internal/cache", "Key") {
		return
	}
	pass.Reportf(sel.Sel.Pos(),
		"re-keying a cache entry's epoch outside internal/cache: only the audited CarryForward path may move an entry between epochs (build a fresh key and recompute instead)")
}

// checkCacheCall flags cache.Cache Do calls whose key does not flow from
// an epoch-bearing value (rule 1).
func checkCacheCall(pass *Pass, file *ast.File, call *ast.CallExpr) {
	named, method := methodRecvNamed(pass.Info, call)
	if !namedIs(named, "internal/cache", "Cache") || method != "Do" || len(call.Args) < 2 {
		return
	}
	if expr, ok := epochFlow(pass, file, call.Args[1]); !ok {
		pass.Reportf(expr.Pos(),
			"cache Do key does not flow from an epoch-bearing value: a key without the graph epoch serves stale scores after the first mutation")
	}
}

// epochFlow decides whether the key expression is epoch-bearing. It
// resolves one level of local assignment, then requires a composite
// literal to set an Epoch field from something named after the epoch.
// Expressions it cannot resolve (parameters, helper-call results) pass:
// their construction sites are checked where they occur.
//
// The returned expression is the best position to report: the Epoch field
// value when one exists, otherwise the key expression itself.
func epochFlow(pass *Pass, file *ast.File, key ast.Expr) (ast.Expr, bool) {
	if id, ok := key.(*ast.Ident); ok {
		obj := pass.Info.Uses[id]
		if obj == nil {
			return key, true
		}
		body := enclosingFuncBody(file, key.Pos())
		if body == nil {
			return key, true
		}
		rhs := localAssignment(pass.Info, body, obj, key.Pos())
		if rhs == nil {
			return key, true // parameter or package-level: checked at its source
		}
		key = rhs
	}
	lit, ok := key.(*ast.CompositeLit)
	if !ok {
		// Calls, selectors, etc.: epoch-bearing if anything epoch-named
		// appears; otherwise assume a helper whose own body is checked.
		return key, true
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			// Positional literal: accept if any element mentions the epoch.
			if mentionsEpoch(el) {
				return key, true
			}
			continue
		}
		if fid, ok := kv.Key.(*ast.Ident); ok && fid.Name == "Epoch" {
			if mentionsEpoch(kv.Value) {
				return kv.Value, true
			}
			return kv.Value, false
		}
	}
	return key, false
}
