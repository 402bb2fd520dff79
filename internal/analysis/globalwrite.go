package analysis

import (
	"go/ast"
	"go/types"
)

// Globalwrite flags writes to package-level variables in code reachable
// from the parallel engine's worker entry points: transition functions
// (the Automaton.Step signature) and function literals launched with
// `go`. SyncRoundParallel invokes Step concurrently from multiple
// workers, so such a write is a data race the race detector only
// catches on the schedules it happens to see; this pass rejects the
// pattern on every schedule. Reachability is a static, intra-package
// over-approximation: direct calls are followed, dynamic dispatch is
// not (interface Step implementations are themselves roots).
var Globalwrite = &Analyzer{
	Name:      "globalwrite",
	Doc:       "no package-level variable writes reachable from Step or goroutine worker bodies",
	AppliesTo: DeterminismCritical,
	Run:       runGlobalwrite,
}

func runGlobalwrite(pass *Pass) error {
	// Roots: transition functions, `go f()` targets and `go func(){...}`
	// literal bodies; a literal's callees root the reachability with
	// the literal as their witness.
	g := pass.callGraph()
	var roots []*types.Func
	why := make(map[*types.Func]string)
	root := func(fn *types.Func, desc string) {
		if _, seen := why[fn]; !seen {
			why[fn] = desc
			roots = append(roots, fn)
		}
	}
	for _, f := range pass.Files {
		if IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if fn, ok := pass.Info.Defs[n.Name].(*types.Func); ok && isStepSignature(fn.Type().(*types.Signature)) {
					root(fn, "transition function "+fn.Name())
				}
			case *ast.GoStmt:
				if fl, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
					checkGlobalWrites(pass, fl.Body, "goroutine body")
					for _, fn := range g.callees(fl.Body) {
						root(fn, "goroutine body -> "+fn.Name())
					}
				}
				if fn, ok := calleeOf(pass.Info, n.Call).(*types.Func); ok {
					root(fn.Origin(), "goroutine "+fn.Name())
				}
			}
			return true
		})
	}

	// Flag package-level writes in every reachable body, naming the
	// call chain that reaches it.
	from := g.reach(roots)
	var chain func(fn *types.Func) string
	chain = func(fn *types.Func) string {
		if caller := from[fn]; caller != nil {
			return chain(caller) + " -> " + fn.Name()
		}
		return why[fn]
	}
	for _, fn := range g.funcs {
		if _, ok := from[fn]; ok && g.decls[fn].Body != nil {
			checkGlobalWrites(pass, g.decls[fn].Body, chain(fn))
		}
	}
	return nil
}

func checkGlobalWrites(pass *Pass, body ast.Node, why string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				reportGlobalWrite(pass, l, why)
			}
		case *ast.IncDecStmt:
			reportGlobalWrite(pass, n.X, why)
		}
		return true
	})
}

func reportGlobalWrite(pass *Pass, lhs ast.Expr, why string) {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil || !isPackageLevelVar(obj) {
		return
	}
	pass.Reportf(lhs.Pos(), "write to package-level variable %q is reachable from a parallel worker entry point (%s); workers race on it under SyncRoundParallel — localize the state or move it out of the worker path", id.Name, why)
}
