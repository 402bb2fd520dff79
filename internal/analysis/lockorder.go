package analysis

// lockorder proves the unit's lock discipline over the CFG:
//
//   - unlock-on-all-paths: a mutex locked in a function must be
//     released on every path to the exit — by an unlock on each path or
//     by a deferred unlock;
//   - no double acquisition: taking a lock (or a write lock over a held
//     read lock) that may already be held self-deadlocks;
//   - no lock held across a blocking channel operation: a plain send or
//     receive, a select without default, or a call to a same-unit
//     function whose transitive summary contains one, performed while a
//     lock is held, stalls every other goroutine contending for it
//     (the engine's round owner holds p.mu for the round — a blocking
//     op there would suspend the Def 3.11 scheduler itself);
//   - consistent acquisition order: holding A while acquiring B (in the
//     function body or transitively through a same-unit call) orders
//     A before B; two locks acquired in both orders anywhere in the
//     unit are a deadlock pair, and every edge on such a cycle is
//     flagged.
//
// The may-held set is a Forward dataflow: each held lock carries the
// branch outcomes it was taken under, so a lock taken and released
// under the same unchanged bool is not held where neither happened.
//
// Lock identity is the struct field or variable owning the mutex (the
// conc layer's target resolution), so p.mu and net.poolMu stay
// distinct while two receivers of the same method share one identity.
// Audited exceptions carry //fssga:conc(reason).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// Lockorder is the lock-discipline analyzer.
var Lockorder = &Analyzer{
	Name:      "lockorder",
	Doc:       "mutexes unlock on all paths, are never re-acquired or held across blocking channel ops, and keep one acquisition order unit-wide (audited exceptions: //fssga:conc(reason))",
	AppliesTo: DeterminismCritical,
	Directive: ConcDirective,
	Run:       runLockorder,
}

// lockKind distinguishes write and read acquisition.
type lockKind uint8

const (
	lockWrite lockKind = iota
	lockRead
)

// A mutexOp is one classified Lock/Unlock/RLock/RUnlock call.
type mutexOp struct {
	obj     types.Object
	name    string
	acquire bool
	kind    lockKind
	pos     token.Pos
}

// A lockSummary is a function's transitive lock/channel effect: the
// identities it may acquire and whether it may block on a channel.
type lockSummary struct {
	acquires map[types.Object]bool
	blocking bool
}

// lockorderCtx extends the conc layer with the unit-wide order graph.
type lockorderCtx struct {
	*concCtx
	summaries map[*types.Func]*lockSummary
	names     map[types.Object]string
	// order records held->acquired edges with their first witness.
	order map[[2]types.Object]token.Pos
}

func runLockorder(pass *Pass) error {
	lc := &lockorderCtx{
		concCtx: concCtxOf(pass),
		names:   make(map[types.Object]string),
		order:   make(map[[2]types.Object]token.Pos),
	}
	// Transitive lock summaries on the call-graph solver: a body's own
	// acquisitions and blocking channel ops are its local fact, and
	// callee summaries flow to their callers.
	g := lc.graph
	lc.summaries = Summarize(g.funcs, func(fn *types.Func) []*types.Func { return g.calls[fn] }, lc.localSummary,
		func(dst, src *lockSummary) (*lockSummary, bool) {
			grew := src.blocking && !dst.blocking
			dst.blocking = dst.blocking || src.blocking
			return dst, union(dst.acquires, src.acquires) || grew
		})

	// Analyze every function-like body independently: declarations plus
	// function literals (a literal runs on its own goroutine or frame;
	// locks do not flow across its boundary statically).
	for _, f := range lc.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					lc.checkBody(fn, fn.Body, pass.Reportf)
				}
			case *ast.FuncLit:
				lc.checkBody(fn, fn.Body, pass.Reportf)
			}
			return true
		})
	}
	lc.reportCycles(pass)
	return nil
}

// mutexOpOf classifies a call as a mutex operation, resolving the
// receiver to its lock identity.
func (lc *lockorderCtx) mutexOpOf(call *ast.CallExpr) (mutexOp, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	var op mutexOp
	switch sel.Sel.Name {
	case "Lock":
		op.acquire, op.kind = true, lockWrite
	case "Unlock":
		op.acquire, op.kind = false, lockWrite
	case "RLock":
		op.acquire, op.kind = true, lockRead
	case "RUnlock":
		op.acquire, op.kind = false, lockRead
	default:
		return mutexOp{}, false
	}
	fn, ok := lc.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return mutexOp{}, false
	}
	op.obj = lc.target(sel.X)
	if op.obj == nil {
		return mutexOp{}, false
	}
	op.pos = call.Pos()
	op.name = renderLockName(sel.X)
	if _, seen := lc.names[op.obj]; !seen {
		lc.names[op.obj] = op.name
	}
	op.name = lc.names[op.obj]
	return op, true
}

// renderLockName prints the receiver path of a mutex op ("p.mu").
func renderLockName(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return renderLockName(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return renderLockName(x.X) + "[...]"
	case *ast.StarExpr:
		return renderLockName(x.X)
	}
	return "<lock>"
}

// localSummary collects the acquisitions and blocking channel ops of
// fn's own body, callees not included.
func (lc *lockorderCtx) localSummary(fn *types.Func) *lockSummary {
	s := &lockSummary{acquires: make(map[types.Object]bool)}
	body := lc.graph.decls[fn].Body
	if body == nil {
		return s
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // spawned code blocks its own goroutine, not the caller
		case *ast.FuncLit:
			// A literal's effects land in the caller's frame only when
			// it is invoked on the spot.
			if call, ok := lc.callParent(n); !ok || unparen(call.Fun) != ast.Expr(n) {
				return false
			}
		case *ast.CallExpr:
			if op, ok := lc.mutexOpOf(n); ok && op.acquire {
				s.acquires[op.obj] = true
			}
		}
		s.blocking = s.blocking || lc.blockingOp(n) != ""
		return true
	})
	return s
}

// blockingOp returns the diagnostic format (one %s: the held locks) for
// a node that may park its goroutine on a channel — a send or receive
// outside a select with default, or a range over a channel — else "".
func (lc *lockorderCtx) blockingOp(n ast.Node) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		if !lc.commNonBlocking(n) {
			return "blocking send while holding %s: the lock is held for the full park"
		}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW && !lc.recvNonBlocking(n) {
			return "blocking receive while holding %s: the lock is held for the full park"
		}
	case *ast.RangeStmt:
		if lc.chanTyped(n.X) {
			return "ranging over a channel while holding %s blocks the lock owner"
		}
	}
	return ""
}

// guards is a set of branch outcomes over a body's stable condition
// variables, one bit per variable: set marks the variables whose outcome
// is known, val holds those outcomes.
type guards struct{ set, val uint64 }

// meet keeps the outcomes both sets agree on.
func (g guards) meet(o guards) guards {
	set := g.set & o.set &^ (g.val ^ o.val)
	return guards{set, g.val & set}
}

// with records the outcome val for the variable at bit.
func (g guards) with(bit uint64, val bool) guards {
	g.set |= bit
	g.val &^= bit
	if val {
		g.val |= bit
	}
	return g
}

// A heldLock is one may-held lock: its acquisition kind and the branch
// outcomes in force on every path that holds it.
type heldLock struct {
	kind  lockKind
	under guards
}

// heldState maps each may-held lock to its guard.
type heldState map[types.Object]heldLock

// A lockFact is the may-held lattice value at one program point: the
// held locks, and the branch outcomes every path to the point took (a
// lock acquired there is held under them).
type lockFact struct {
	path guards
	held heldState
}

func (f lockFact) clone() lockFact { return lockFact{f.path, maps.Clone(f.held)} }

func (f lockFact) equal(o lockFact) bool { return f.path == o.path && maps.Equal(f.held, o.held) }

// join unions the held locks (write dominates read: lockWrite is the
// smaller kind) and keeps only the outcomes both sides agree on.
func (f lockFact) join(o lockFact) lockFact {
	f.path = f.path.meet(o.path)
	for k, h := range o.held {
		if cur, ok := f.held[k]; ok {
			h = heldLock{min(h.kind, cur.kind), h.under.meet(cur.under)}
		}
		f.held[k] = h
	}
	return f
}

// refine enters a branch where the variable at bit took val: a lock
// taken under the opposite outcome is not held on this edge.
func (f lockFact) refine(bit uint64, val bool) lockFact {
	f.path = f.path.with(bit, val)
	for k, h := range f.held {
		if h.under.set&bit != 0 && (h.under.val&bit != 0) != val {
			delete(f.held, k)
			continue
		}
		h.under = h.under.with(bit, val)
		f.held[k] = h
	}
	return f
}

// stableConds assigns a guard bit to each variable of fn whose branch
// outcomes may be correlated: bool parameters and locals (the first
// 64) never reassigned or address-taken anywhere in fn, nested literals
// included. A redefinition (a loop re-running the declaration) forgets
// the variable's outcomes.
func (lc *lockorderCtx) stableConds(fn ast.Node) map[*types.Var]uint64 {
	info := lc.pass.Info
	stable := make(map[*types.Var]uint64)
	written := make(map[types.Object]bool)
	ast.Inspect(fn, func(n ast.Node) bool {
		var lhs []ast.Expr
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := info.Defs[n].(*types.Var); ok && len(stable) < 64 && types.Identical(v.Type(), types.Typ[types.Bool]) {
				stable[v] = 1 << len(stable)
			}
		case *ast.AssignStmt:
			lhs = n.Lhs
		case *ast.RangeStmt:
			lhs = []ast.Expr{n.Key, n.Value}
		case *ast.IncDecStmt:
			lhs = []ast.Expr{n.X}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				lhs = []ast.Expr{n.X}
			}
		}
		for _, e := range lhs {
			if id, ok := e.(*ast.Ident); ok {
				written[info.Uses[id]] = true
			}
		}
		return true
	})
	for v := range stable {
		if written[v] {
			delete(stable, v)
		}
	}
	return stable
}

// checkBody runs the may-held dataflow over one function body on the
// CFG solver and reports discipline violations. fn is the declaration
// or literal owning body.
func (lc *lockorderCtx) checkBody(fn ast.Node, body *ast.BlockStmt, report func(pos token.Pos, format string, args ...any)) {
	cfg := BuildCFG(body)
	if cfg == nil {
		return
	}

	// Deferred unlocks release at function exit; collect them up front
	// (they do not shorten the held region — that is the point of defer).
	deferred := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if op, isOp := lc.mutexOpOf(d.Call); isOp && !op.acquire {
			deferred[op.obj] = true
		}
		return true
	})

	stable := lc.stableConds(fn)
	res := Forward(cfg, lockFact{path: guards{}, held: heldState{}}, FlowFuncs[lockFact]{
		Clone: lockFact.clone,
		Join:  lockFact.join,
		Equal: lockFact.equal,
		Transfer: func(n ast.Node, f lockFact) lockFact {
			lc.transfer(n, &f, stable, nil)
			return f
		},
		Refine: func(e *Edge, f lockFact) lockFact {
			if id, ok := unparen(e.Cond).(*ast.Ident); ok {
				if v, ok := lc.pass.Info.Uses[id].(*types.Var); ok && stable[v] != 0 {
					return f.refine(stable[v], e.Kind == EdgeTrue)
				}
			}
			return f
		},
	})

	// Reporting pass over the stabilized states. Each acquisition is
	// judged against the held set just before it, so blocks are walked
	// from their In facts rather than replayed node by node.
	firstLock := make(map[types.Object]token.Pos)
	for _, b := range cfg.Blocks {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		f := in.clone()
		for _, n := range b.Nodes {
			lc.transfer(n, &f, stable, func(op mutexOp, held heldState) {
				lc.checkNode(op, held, firstLock, report)
			})
			lc.checkBlocking(n, f.held, report)
		}
	}

	// Unlock-on-all-paths: may-held at the exit without a deferred
	// release means some path returns still holding the lock.
	if cfg.Exit != nil {
		var leaked []types.Object
		for obj := range res.In[cfg.Exit].held {
			if !deferred[obj] {
				leaked = append(leaked, obj)
			}
		}
		sort.Slice(leaked, func(i, j int) bool { return lc.names[leaked[i]] < lc.names[leaked[j]] })
		for _, obj := range leaked {
			pos := firstLock[obj]
			if pos == token.NoPos {
				continue
			}
			report(pos, "lock %q may be held at function exit on some path: unlock on every path or defer the unlock", lc.names[obj])
		}
	}
}

// transfer applies one CFG node's lock effects to f, calling onOp (when
// non-nil) for each mutex operation before it lands.
func (lc *lockorderCtx) transfer(n ast.Node, f *lockFact, stable map[*types.Var]uint64, onOp func(op mutexOp, held heldState)) {
	// A RangeStmt node in a loop-head block stands for the has-next
	// check and the key/value definitions only; its body statements
	// live in their own blocks.
	if r, ok := n.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{r.Key, r.Value, r.X} {
			if e != nil {
				lc.transfer(e, f, stable, onOp)
			}
		}
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // analyzed as its own body
		case *ast.GoStmt:
			return false // spawned code affects its own goroutine
		case *ast.DeferStmt:
			return false // releases at exit, not here
		case *ast.Ident:
			if v, ok := lc.pass.Info.Defs[m].(*types.Var); ok && stable[v] != 0 {
				bit := stable[v]
				f.path = guards{f.path.set &^ bit, f.path.val &^ bit}
				for k, h := range f.held {
					h.under = guards{h.under.set &^ bit, h.under.val &^ bit}
					f.held[k] = h
				}
			}
		case *ast.CallExpr:
			op, ok := lc.mutexOpOf(m)
			if !ok {
				return true
			}
			if onOp != nil {
				onOp(op, f.held)
			}
			if !op.acquire {
				delete(f.held, op.obj)
				return true
			}
			h := heldLock{op.kind, f.path}
			if cur, already := f.held[op.obj]; already {
				h.kind = min(h.kind, cur.kind)
			}
			f.held[op.obj] = h
		}
		return true
	})
}

// checkNode records acquisition order and reports double acquisition
// for one mutex operation.
func (lc *lockorderCtx) checkNode(op mutexOp, held heldState, firstLock map[types.Object]token.Pos, report func(pos token.Pos, format string, args ...any)) {
	if !op.acquire {
		return
	}
	if _, exists := firstLock[op.obj]; !exists {
		firstLock[op.obj] = op.pos
	}
	for h := range held {
		if h != op.obj {
			lc.recordOrder(h, op.obj, op.pos)
		}
	}
	if cur, already := held[op.obj]; already && !(cur.kind == lockRead && op.kind == lockRead) {
		report(op.pos, "lock %q may already be held here: self-deadlock", op.name)
	}
}

// checkBlocking reports blocking channel operations — directly or
// through a same-unit callee's summary — performed while a lock is held.
func (lc *lockorderCtx) checkBlocking(n ast.Node, held heldState, report func(pos token.Pos, format string, args ...any)) {
	if len(held) == 0 {
		return
	}
	holding := lc.heldNames(held)
	if r, ok := n.(*ast.RangeStmt); ok {
		// The head block's RangeStmt stands for the has-next check; its
		// body statements are their own CFG nodes. Judge only the range
		// expression here (ranging a channel blocks at the head).
		if msg := lc.blockingOp(r); msg != "" {
			report(r.Pos(), msg, holding)
		}
		lc.checkBlocking(r.X, held, report)
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if msg := lc.blockingOp(m); msg != "" {
			report(m.Pos(), msg, holding)
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false // go itself never blocks the spawner
		case *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			fn, ok := calleeOf(lc.pass.Info, m).(*types.Func)
			if !ok {
				return true
			}
			s := lc.summaries[fn.Origin()]
			if s == nil {
				return true
			}
			if s.blocking {
				report(m.Pos(), "call to %s may block on a channel while holding %s", fn.Name(), holding)
			}
			for a := range s.acquires {
				for h := range held {
					if h != a {
						lc.recordOrder(h, a, m.Pos())
					}
				}
				if _, already := held[a]; already {
					report(m.Pos(), "call to %s may re-acquire %q already held here: self-deadlock", fn.Name(), lc.names[a])
				}
			}
		}
		return true
	})
}

// heldNames renders the held set for diagnostics, sorted for stability.
func (lc *lockorderCtx) heldNames(held heldState) string {
	var names []string
	for obj := range held {
		names = append(names, fmt.Sprintf("%q", lc.names[obj]))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// recordOrder notes that `held` was held while acquiring `acq`.
func (lc *lockorderCtx) recordOrder(held, acq types.Object, pos token.Pos) {
	key := [2]types.Object{held, acq}
	if _, seen := lc.order[key]; !seen {
		lc.order[key] = pos
	}
}

// reportCycles flags every order edge that participates in a cycle of
// the unit-wide acquisition graph: two locks taken in both orders
// anywhere in the unit are a deadlock pair. after[a] holds every lock
// acquired, directly or transitively, while a is held.
func (lc *lockorderCtx) reportCycles(pass *Pass) {
	var locks []types.Object
	succ := make(map[types.Object][]types.Object)
	for key := range lc.order {
		if succ[key[0]] == nil {
			locks = append(locks, key[0])
		}
		succ[key[0]] = append(succ[key[0]], key[1])
	}
	after := Summarize(locks,
		func(a types.Object) []types.Object { return succ[a] },
		func(a types.Object) map[types.Object]bool {
			m := make(map[types.Object]bool)
			for _, b := range succ[a] {
				m[b] = true
			}
			return m
		},
		func(dst, src map[types.Object]bool) (map[types.Object]bool, bool) { return dst, union(dst, src) })
	for key, pos := range lc.order {
		if after[key[1]][key[0]] {
			pass.Reportf(pos, "lock %q acquired while %q is held, but the opposite order also occurs in this package: deadlock pair", lc.names[key[1]], lc.names[key[0]])
		}
	}
}
