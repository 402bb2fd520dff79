package analysis

import (
	"go/ast"
	"go/types"
)

// A callGraph is the unit's same-unit static call graph, built once per
// unit and shared by every interprocedural analyzer: the conc layer's
// entry-point reachability and lock summaries, globalwrite's worker
// reachability and hotalloc's may-allocate summaries. Nodes are the
// unit's function declarations keyed by their origin, so a call through
// an instantiated generic function or a method of a generic type
// resolves to its one declaration. Calls inside function literals
// attribute to the enclosing declaration.
type callGraph struct {
	info  *types.Info
	funcs []*types.Func // declarations in source order
	decls map[*types.Func]*ast.FuncDecl
	calls map[*types.Func][]*types.Func
}

// callGraph returns the unit's call graph, building it on first use.
func (p *Pass) callGraph() *callGraph {
	if p.unit.cg != nil {
		return p.unit.cg
	}
	g := &callGraph{
		info:  p.Info,
		decls: make(map[*types.Func]*ast.FuncDecl),
		calls: make(map[*types.Func][]*types.Func),
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				g.decls[obj] = fd
				g.funcs = append(g.funcs, obj)
			}
		}
	}
	for _, fn := range g.funcs {
		if body := g.decls[fn].Body; body != nil {
			g.calls[fn] = g.callees(body)
		}
	}
	p.unit.cg = g
	return g
}

// callees lists the same-unit declarations statically called inside n,
// each once, in source order.
func (g *callGraph) callees(n ast.Node) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := calleeOf(g.info, call).(*types.Func); ok {
			fn = fn.Origin()
			if _, inUnit := g.decls[fn]; inUnit && !seen[fn] {
				seen[fn] = true
				out = append(out, fn)
			}
		}
		return true
	})
	return out
}

// reach returns every declaration reachable from roots, mapped to the
// caller it was first reached from breadth-first (roots map to nil).
// Roots outside the unit are ignored.
func (g *callGraph) reach(roots []*types.Func) map[*types.Func]*types.Func {
	from := make(map[*types.Func]*types.Func)
	var queue []*types.Func
	for _, r := range roots {
		if _, seen := from[r]; !seen && g.decls[r] != nil {
			from[r] = nil
			queue = append(queue, r)
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, c := range g.calls[queue[i]] {
			if _, seen := from[c]; !seen {
				from[c] = queue[i]
				queue = append(queue, c)
			}
		}
	}
	return from
}
