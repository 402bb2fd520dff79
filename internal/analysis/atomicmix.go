package analysis

// atomicmix proves the all-or-nothing atomics rule: a field or variable
// accessed through sync/atomic anywhere in the unit must be accessed
// atomically everywhere. A single plain load racing an atomic store is
// already undefined under the Go memory model, and the data-race
// detector only catches the interleavings a test happens to schedule —
// this pass catches them all. The engine prefers the typed atomics
// (atomic.Int64 et al., which make mixed access unrepresentable); this
// pass guards the raw-call escape hatch. Audited exceptions (e.g. a
// plain read inside a section proven single-threaded by construction)
// carry //fssga:conc(reason).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Atomicmix is the atomic-vs-plain access analyzer.
var Atomicmix = &Analyzer{
	Name:      "atomicmix",
	Doc:       "a field accessed via sync/atomic anywhere must be accessed atomically everywhere (audited exceptions: //fssga:conc(reason))",
	AppliesTo: DeterminismCritical,
	Directive: ConcDirective,
	Run:       runAtomicmix,
}

func runAtomicmix(pass *Pass) error {
	c := concCtxOf(pass)

	// Pass 1: identities addressed by raw sync/atomic calls, and the
	// &x arguments of those calls (excused from pass 2).
	atomicObjs := make(map[types.Object]string) // identity -> first op name
	inAtomicCall := make(map[ast.Node]bool)
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := calleeOf(pass.Info, call).(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				return true // typed-atomic methods make mixing unrepresentable
			}
			for _, arg := range call.Args {
				u, isAddr := unparen(arg).(*ast.UnaryExpr)
				if !isAddr || u.Op != token.AND {
					continue
				}
				obj := c.target(u.X)
				if obj == nil {
					continue
				}
				if _, seen := atomicObjs[obj]; !seen {
					atomicObjs[obj] = fn.Name()
				}
				ast.Inspect(u, func(m ast.Node) bool {
					if m != nil {
						inAtomicCall[m] = true
					}
					return true
				})
			}
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return nil
	}

	// Pass 2: every other access to those identities must be atomic.
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if inAtomicCall[n] {
				return false
			}
			var obj types.Object
			var pos token.Pos
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if fld := c.fieldOf(n); fld != nil {
					obj, pos = fld, n.Pos()
				}
			case *ast.Ident:
				if _, isSel := c.parents[n].(*ast.SelectorExpr); isSel {
					return true // judged at the selector
				}
				if kv, isKV := c.parents[n].(*ast.KeyValueExpr); isKV && kv.Key == n {
					return true // composite-literal init precedes publication
				}
				obj, pos = c.objOf(n), n.Pos()
			default:
				return true
			}
			op, isAtomic := atomicObjs[obj]
			if !isAtomic {
				return true
			}
			if declaresObj(c.pass.Info, n, obj) {
				return true // the declaration site itself is not an access
			}
			pass.Reportf(pos, "plain access to %q, which is accessed via atomic.%s elsewhere: every access must go through sync/atomic", obj.Name(), op)
			return false
		})
	}
	return nil
}

// declaresObj reports whether n is the defining identifier of obj (a
// struct field declaration or var declaration, not a use).
func declaresObj(info *types.Info, n ast.Node, obj types.Object) bool {
	id, ok := n.(*ast.Ident)
	if !ok {
		return false
	}
	return info.Defs[id] == obj
}
