package analysis

// Finstate proves the finite-state half of the FSSGA contract
// (Pritchard & Vempala, Section 2): the state space reachable from a
// transition function must not grow with the input. Two checks:
//
//   - the state type itself must have a finite value domain — no
//     slices, maps, pointers, strings, channels or interfaces inside
//     the Step result type (an n-sized payload in the state is the
//     classic way a "finite-state" protocol cheats);
//
//   - returned state values must not carry unbounded arithmetic. A
//     forward dataflow over the function's CFG tracks each variable's
//     level in the three-point lattice Bounded ⊏ StateMagnitude ⊏
//     Growing: constants and automaton configuration are Bounded, the
//     incoming self/neighbour states are StateMagnitude (returning
//     them verbatim cannot enlarge the reachable set), and additive
//     arithmetic (+, -, *, <<, ++) on anything at StateMagnitude or
//     above is Growing. `x % k` re-bounds, as does a clamp — the
//     branch refinement on CFG edges means `if x > cap { x = cap }`
//     leaves x Bounded on both paths. A return whose value is Growing
//     is reported: iterated over rounds, that state diverges and the
//     automaton is no longer finite-state.
//
// The boundedness rules are deliberately one-sided (an upper-bound
// clamp is accepted as bounding) and trust calls to return Bounded
// values: the dynamic witness enumeration in internal/mc covers the
// residue. Conservative in the direction that matters — every flagged
// site really does perform unclamped arithmetic on state.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var Finstate = &Analyzer{
	Name:      "finstate",
	Doc:       "transition functions keep the reachable state space finite: no unbounded arithmetic on state, no n-sized state payloads",
	AppliesTo: DeterminismCritical,
	Run:       runFinstate,
}

// Lattice levels for one variable.
const (
	levelBounded uint8 = iota // constant / configuration-derived
	levelState                // magnitude of an incoming state value
	levelGrowing              // state ⊕ arithmetic: diverges over rounds
)

// boundFact maps objects to their level; absent means Bounded.
type boundFact map[types.Object]uint8

func runFinstate(pass *Pass) error {
	for _, f := range pass.Files {
		if IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return false
				}
				fn, ok := pass.Info.Defs[n.Name].(*types.Func)
				if !ok {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if ok && isStepSignature(sig) {
					checkStateType(pass, n.Name.Pos(), sig.Results().At(0).Type())
					checkBoundedness(pass, sig, n.Body)
				}
			case *ast.FuncLit:
				sig, ok := pass.Info.TypeOf(n).(*types.Signature)
				if ok && isStepSignature(sig) {
					checkStateType(pass, n.Pos(), sig.Results().At(0).Type())
					checkBoundedness(pass, sig, n.Body)
					return false
				}
			}
			return true
		})
	}
	return nil
}

// checkStateType verifies the state type has a finite value domain.
func checkStateType(pass *Pass, pos token.Pos, t types.Type) {
	seen := map[types.Type]bool{}
	var visit func(t types.Type, path string)
	visit = func(t types.Type, path string) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Basic:
			if u.Info()&types.IsString != 0 {
				pass.Reportf(pos, "state type component %s is a string; strings have an unbounded value domain — use a fixed-width encoding (finite-state contract, Section 2)", path)
			}
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				fld := u.Field(i)
				visit(fld.Type(), path+"."+fld.Name())
			}
		case *types.Array:
			visit(u.Elem(), path+"[i]")
		case *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Pointer, *types.Interface:
			if _, isTP := t.(*types.TypeParam); isTP {
				return
			}
			pass.Reportf(pos, "state type component %s is a %s; states must draw from a finite, n-independent domain (finite-state contract, Section 2)", path, typeKind(u))
		}
	}
	if _, isTP := t.(*types.TypeParam); isTP {
		return // generic wrappers constrain S at instantiation sites
	}
	visit(t, "state")
}

func typeKind(t types.Type) string {
	switch t.(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	case *types.Chan:
		return "channel"
	case *types.Signature:
		return "function"
	case *types.Pointer:
		return "pointer"
	case *types.Interface:
		return "interface"
	}
	return "reference type"
}

// checkBoundedness runs the level dataflow over one Step body and
// reports returns of Growing values.
func checkBoundedness(pass *Pass, sig *types.Signature, body *ast.BlockStmt) {
	cfg := BuildCFG(body)
	if cfg == nil {
		return
	}
	be := &boundEval{info: pass.Info}
	boundary := boundFact{}
	if self := sig.Params().At(0); self != nil {
		boundary[self] = levelState
	}
	fn := FlowFuncs[boundFact]{
		Clone: func(f boundFact) boundFact {
			out := make(boundFact, len(f))
			for k, v := range f {
				out[k] = v
			}
			return out
		},
		Join: func(dst, src boundFact) boundFact {
			for k, v := range src {
				if v > dst[k] {
					dst[k] = v
				}
			}
			return dst
		},
		Equal: func(a, b boundFact) bool {
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if b[k] != v {
					return false
				}
			}
			return true
		},
		Transfer: be.transfer,
		Refine:   be.refine,
	}
	res := Forward(cfg, boundary, fn)
	for _, b := range cfg.Blocks {
		res.Replay(b, func(n ast.Node, before boundFact) {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return
			}
			for _, e := range ret.Results {
				if be.eval(e, before) == levelGrowing {
					pass.Reportf(e.Pos(), "returned state value grows without bound (unclamped arithmetic on state); reduce modulo a constant or clamp before returning (finite-state contract, Section 2)")
				}
			}
		})
	}
}

// boundEval evaluates expression levels and statement transfer for the
// boundedness lattice.
type boundEval struct {
	info *types.Info
}

// eval computes the level of expression e under fact f.
func (be *boundEval) eval(e ast.Expr, f boundFact) uint8 {
	if e == nil {
		return levelBounded
	}
	if tv, ok := be.info.Types[e]; ok && tv.Value != nil {
		return levelBounded
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return be.eval(x.X, f)
	case *ast.Ident:
		if obj := be.info.ObjectOf(x); obj != nil {
			return f[obj]
		}
		return levelBounded
	case *ast.SelectorExpr:
		if id := rootIdent(x); id != nil {
			if obj := be.info.ObjectOf(id); obj != nil {
				return f[obj]
			}
		}
		return levelBounded
	case *ast.IndexExpr:
		return be.eval(x.X, f)
	case *ast.StarExpr:
		return be.eval(x.X, f)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return levelBounded
		}
		return be.eval(x.X, f)
	case *ast.CompositeLit:
		lv := levelBounded
		for _, el := range x.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if l := be.eval(v, f); l > lv {
				lv = l
			}
		}
		return lv
	case *ast.CallExpr:
		return be.evalCall(x, f)
	case *ast.BinaryExpr:
		return be.evalBinary(x, f)
	case *ast.TypeAssertExpr:
		return be.eval(x.X, f)
	}
	return levelBounded
}

func (be *boundEval) evalCall(call *ast.CallExpr, f boundFact) uint8 {
	// Conversions preserve the operand's level: T(x) renames the
	// domain, it does not bound it.
	if tv, ok := be.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return be.eval(call.Args[0], f)
	}
	if b, ok := calleeOf(be.info, call).(*types.Builtin); ok {
		switch b.Name() {
		case "min":
			// Bounded above by its smallest bounded argument.
			lv := levelGrowing
			for _, a := range call.Args {
				if l := be.eval(a, f); l < lv {
					lv = l
				}
			}
			return lv
		case "max":
			lv := levelBounded
			for _, a := range call.Args {
				if l := be.eval(a, f); l > lv {
					lv = l
				}
			}
			return lv
		}
	}
	// Other calls are trusted to return bounded values (rnd.Intn,
	// observation counts — themselves capped by symcontract).
	return levelBounded
}

func (be *boundEval) evalBinary(x *ast.BinaryExpr, f boundFact) uint8 {
	lx, ly := be.eval(x.X, f), be.eval(x.Y, f)
	hi := lx
	if ly > hi {
		hi = ly
	}
	lo := lx
	if ly < lo {
		lo = ly
	}
	switch x.Op {
	case token.REM:
		// x % k is bounded by k.
		return ly
	case token.AND:
		// Masking bounds by the smaller operand's domain.
		return lo
	case token.OR, token.XOR, token.SHR, token.QUO:
		// Stay within the wider operand's domain (no growth).
		return hi
	case token.ADD, token.SUB, token.MUL, token.SHL:
		if hi >= levelState {
			return levelGrowing
		}
		return levelBounded
	case token.LAND, token.LOR, token.EQL, token.NEQ,
		token.LSS, token.GTR, token.LEQ, token.GEQ:
		return levelBounded
	}
	return hi
}

// transfer applies one CFG node's effect on the fact.
func (be *boundEval) transfer(n ast.Node, f boundFact) boundFact {
	switch n := n.(type) {
	case *ast.AssignStmt:
		be.assign(n, f)
	case *ast.IncDecStmt:
		// x++ iterated over rounds diverges; refinement on the
		// enclosing loop condition restores Bounded where a constant
		// bound exists.
		be.writeTarget(n.X, levelGrowing, f)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					lv := levelBounded
					if i < len(vs.Values) {
						lv = be.eval(vs.Values[i], f)
					}
					be.setIdent(name, lv, f)
				}
			}
		}
	case *ast.RangeStmt:
		if n.Key != nil {
			be.writeTarget(n.Key, levelBounded, f)
		}
		if n.Value != nil {
			be.writeTarget(n.Value, be.eval(n.X, f), f)
		}
	}
	// Fold callbacks execute within this node: apply their writes to
	// surviving variables, with element parameters at StateMagnitude.
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := isViewMethod(be.info, call); ok && name == "ForEach" {
			be.foldTransfer(call, f)
		}
		return true
	})
	return f
}

func (be *boundEval) assign(as *ast.AssignStmt, f boundFact) {
	switch as.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(as.Lhs) == len(as.Rhs) {
			levels := make([]uint8, len(as.Rhs))
			for i := range as.Rhs {
				levels[i] = be.eval(as.Rhs[i], f)
			}
			for i, lhs := range as.Lhs {
				be.writeTarget(lhs, levels[i], f)
			}
		} else {
			// Multi-value call: trusted bounded.
			for _, lhs := range as.Lhs {
				be.writeTarget(lhs, levelBounded, f)
			}
		}
	default:
		// Compound assignment x op= e mirrors the binary operator.
		lx := be.eval(as.Lhs[0], f)
		ly := be.eval(as.Rhs[0], f)
		hi, lo := lx, ly
		if ly > hi {
			hi = ly
		}
		if lx < lo {
			lo = lx
		}
		var lv uint8
		switch as.Tok {
		case token.REM_ASSIGN:
			lv = ly
		case token.AND_ASSIGN:
			lv = lo
		case token.OR_ASSIGN, token.XOR_ASSIGN, token.SHR_ASSIGN, token.QUO_ASSIGN:
			lv = hi
		default: // += -= *= <<=
			lv = hi
			if hi >= levelState {
				lv = levelGrowing
			}
		}
		be.writeTarget(as.Lhs[0], lv, f)
	}
}

// writeTarget updates the fact for an assignment target: strong update
// for plain identifiers, weak (join) update through selectors and
// indexing, where the root object aggregates its components.
func (be *boundEval) writeTarget(lhs ast.Expr, lv uint8, f boundFact) {
	switch x := unparen(lhs).(type) {
	case *ast.Ident:
		be.setIdent(x, lv, f)
	default:
		if id := rootIdent(lhs); id != nil {
			if obj := be.info.ObjectOf(id); obj != nil {
				if lv > f[obj] {
					f[obj] = lv
				}
			}
		}
	}
}

func (be *boundEval) setIdent(id *ast.Ident, lv uint8, f boundFact) {
	if id.Name == "_" {
		return
	}
	obj := be.info.ObjectOf(id)
	if obj == nil {
		return
	}
	if lv == levelBounded {
		delete(f, obj)
	} else {
		f[obj] = lv
	}
}

// foldTransfer applies a ForEach callback's writes to variables that
// outlive it: the callback runs zero or more times, so every write is
// a weak update, with the fold parameters at StateMagnitude. Iterated
// to its fixed point so accumulator chains of any length settle: levels
// only rise and the lattice has height 3, so the loop terminates.
func (be *boundEval) foldTransfer(call *ast.CallExpr, f boundFact) {
	if len(call.Args) == 0 {
		return
	}
	lit, ok := unparen(call.Args[0]).(*ast.FuncLit)
	if !ok {
		return
	}
	inner := make(boundFact, len(f)+2)
	for k, v := range f {
		inner[k] = v
	}
	for _, fld := range lit.Type.Params.List {
		for _, name := range fld.Names {
			if obj := be.info.Defs[name]; obj != nil {
				inner[obj] = levelState
			}
		}
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			switch m.(type) {
			case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt, *ast.RangeStmt, *ast.ExprStmt:
			default:
				return true
			}
			before := make(boundFact, len(inner))
			for k, v := range inner {
				before[k] = v
			}
			be.transfer(m, inner)
			// Weak semantics: never lower a level inside a fold.
			for k, v := range before {
				if inner[k] < v {
					inner[k] = v
				}
			}
			for k, v := range inner {
				if before[k] != v {
					changed = true
				}
			}
			return true
		})
	}
	// Export the surviving variables' levels back to the outer fact.
	for k, v := range inner {
		if !k.Pos().IsValid() || insideNode(lit, k.Pos()) {
			continue
		}
		if v > f[k] {
			f[k] = v
		}
	}
}

// refine sharpens facts along conditional edges: on the edge where
// `x < B` / `x <= B` holds (or `x > B` / `x >= B` fails), x is
// bounded by B when B itself is Bounded — the clamp idiom.
func (be *boundEval) refine(e *Edge, f boundFact) boundFact {
	cond, ok := e.Cond.(*ast.BinaryExpr)
	if !ok {
		return f
	}
	boundIdent := func(x, bound ast.Expr) {
		id, ok := unparen(x).(*ast.Ident)
		if !ok {
			return
		}
		if be.eval(bound, f) != levelBounded {
			return
		}
		be.setIdent(id, levelBounded, f)
	}
	taken := e.Kind == EdgeTrue
	switch cond.Op {
	case token.LSS, token.LEQ: // x < B true ⇒ x bounded; B < x false ⇒ x bounded
		if taken {
			boundIdent(cond.X, cond.Y)
		} else {
			boundIdent(cond.Y, cond.X)
		}
	case token.GTR, token.GEQ: // x > B false ⇒ x bounded; B > x true ⇒ x bounded
		if taken {
			boundIdent(cond.Y, cond.X)
		} else {
			boundIdent(cond.X, cond.Y)
		}
	case token.EQL:
		if taken {
			boundIdent(cond.X, cond.Y)
			boundIdent(cond.Y, cond.X)
		}
	case token.NEQ:
		if !taken {
			boundIdent(cond.X, cond.Y)
			boundIdent(cond.Y, cond.X)
		}
	}
	return f
}
