package analysis

// dataflow.go holds the package's two fixed-point solvers; every
// fixpoint in the analyzers runs on one of them.
//
//   - Forward is a worklist engine over one function's CFG. Fact types
//     are supplied by the analyzer through FlowFuncs; the engine
//     guarantees termination for monotone transfer functions over
//     finite-height lattices and applies an optional per-edge
//     refinement so branch conditions can sharpen facts (`x > cap`
//     false ⇒ x ≤ cap). Its users are finstate (boundedness levels)
//     and lockorder (the condition-correlated may-held set).
//   - Summarize is a least-fixpoint solver over a dependency graph:
//     successor facts flow to predecessors, which is how callee
//     summaries reach their callers over the shared call graph
//     (callgraph.go). Its users are lockorder's lock summaries,
//     hotalloc's may-allocate summaries and HotpathReport's verdicts.

import "go/ast"

// FlowFuncs defines one dataflow problem over fact type F.
type FlowFuncs[F any] struct {
	// Clone deep-copies a fact so transfer can mutate freely.
	Clone func(F) F
	// Join merges src into dst and returns the result (may reuse dst).
	// It must be monotone: Join(a, b) ⊒ a, b.
	Join func(dst, src F) F
	// Equal reports fact equality; the fixed point stops on it.
	Equal func(a, b F) bool
	// Transfer applies one block node's effect (may mutate and return f).
	Transfer func(n ast.Node, f F) F
	// Refine, if non-nil, sharpens the fact flowing along a
	// conditional (EdgeTrue/EdgeFalse) edge using e.Cond.
	Refine func(e *Edge, f F) F
}

// A FlowResult holds the per-block facts at the fixed point.
type FlowResult[F any] struct {
	fn FlowFuncs[F]
	// In is the fact on entry to each block; Out on normal completion.
	In, Out map[*Block]F
}

// Forward runs the problem to its fixed point. boundary is the fact
// entering the CFG (parameter assumptions); it is cloned, never
// mutated.
func Forward[F any](c *CFG, boundary F, fn FlowFuncs[F]) *FlowResult[F] {
	r := &FlowResult[F]{
		fn:  fn,
		In:  make(map[*Block]F, len(c.Blocks)),
		Out: make(map[*Block]F, len(c.Blocks)),
	}
	queued := make([]bool, len(c.Blocks))
	// Blocks are numbered in reverse post-order, so seeding the queue
	// in index order visits definitions before uses on acyclic paths.
	queue := make([]*Block, 0, len(c.Blocks))
	push := func(b *Block) {
		if !queued[b.Index] {
			queued[b.Index] = true
			queue = append(queue, b)
		}
	}
	push(c.Entry)
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b.Index] = false

		in := fn.Clone(boundary)
		if b != c.Entry {
			first := true
			for _, e := range b.Preds {
				out, ok := r.Out[e.From]
				if !ok {
					continue // predecessor not yet visited
				}
				f := fn.Clone(out)
				if fn.Refine != nil && (e.Kind == EdgeTrue || e.Kind == EdgeFalse) && e.Cond != nil {
					f = fn.Refine(e, f)
				}
				if first {
					in = f
					first = false
				} else {
					in = fn.Join(in, f)
				}
			}
			if first {
				continue // no reachable predecessor yet; revisited later
			}
		}
		r.In[b] = fn.Clone(in)
		out := in
		for _, n := range b.Nodes {
			out = fn.Transfer(n, out)
		}
		if old, ok := r.Out[b]; ok && fn.Equal(old, out) {
			continue
		}
		r.Out[b] = out
		for _, e := range b.Succs {
			push(e.To)
		}
	}
	return r
}

// Replay re-runs the transfer function through block b from its In
// fact, calling visit with the fact in force just before each node.
// Analyzers use it to inspect mid-block program points (e.g. the fact
// at a return statement) without the engine storing per-node facts.
func (r *FlowResult[F]) Replay(b *Block, visit func(n ast.Node, before F)) {
	in, ok := r.In[b]
	if !ok {
		return // block never reached at the fixed point
	}
	f := r.fn.Clone(in)
	for _, n := range b.Nodes {
		visit(n, f)
		f = r.fn.Transfer(n, f)
	}
}

// Summarize computes the least fixed point of a dependency-graph
// problem: each node's fact is its local fact joined with the facts of
// its successors (a caller's summary absorbs its callees'). join merges
// src into dst and reports whether dst grew; it must be monotone over a
// finite-height lattice, and may reuse dst. Successors outside nodes
// contribute nothing. The result does not depend on the order of nodes.
func Summarize[N comparable, F any](nodes []N, succs func(N) []N, local func(N) F, join func(dst, src F) (F, bool)) map[N]F {
	// Every node starts queued; a node is requeued when its fact grows,
	// so its predecessors see the new value.
	facts := make(map[N]F, len(nodes))
	queued := make(map[N]bool, len(nodes))
	for _, n := range nodes {
		facts[n] = local(n)
		queued[n] = true
	}
	preds := make(map[N][]N, len(nodes))
	for _, n := range nodes {
		for _, s := range succs(n) {
			if _, ok := facts[s]; ok {
				preds[s] = append(preds[s], n)
			}
		}
	}
	queue := append([]N(nil), nodes...)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		queued[n] = false
		for _, p := range preds[n] {
			f, grew := join(facts[p], facts[n])
			facts[p] = f
			if grew && !queued[p] {
				queued[p] = true
				queue = append(queue, p)
			}
		}
	}
	return facts
}
