package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// parseBody parses a single function declaration and returns its body.
func parseBody(t testing.TB, fn string) (*ast.BlockStmt, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", "package p\n\n"+fn, 0)
	if err != nil {
		t.Fatalf("parsing %q: %v", fn, err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body, fset
}

// TestBuildCFGGolden pins the CFG shape of the control constructs the
// dataflow analyzers rely on: branch edges carrying their leaf
// condition, loops, dispatch, and short-circuit decomposition.
func TestBuildCFGGolden(t *testing.T) {
	cases := []struct {
		name, fn, want string
		noExit         bool
	}{
		{
			name: "if_clamp",
			fn: `func f(x, cap int) int {
	if x > cap {
		x = cap
	}
	return x
}`,
			want: `b0 entry: {x > cap} T->b1 F->b2
b1 if.then: {x = cap} ->b2
b2 if.done: {return x} ->b3
b3 exit:
`,
		},
		{
			name: "if_else",
			fn: `func f(x int) int {
	if x > 0 {
		x = 1
	} else {
		x = -1
	}
	return x
}`,
			want: `b0 entry: {x > 0} F->b1 T->b2
b1 if.else: {x = -1} ->b3
b2 if.then: {x = 1} ->b3
b3 if.done: {return x} ->b4
b4 exit:
`,
		},
		{
			name: "for_loop",
			fn: `func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`,
			want: `b0 entry: {s := 0} {i := 0} ->b1
b1 for.head: {i < n} F->b2 T->b4
b2 for.done: {return s} ->b3
b3 exit:
b4 for.body: {s += i} ->b5
b5 for.post: {i++} ->b1
`,
		},
		{
			name: "range_loop",
			fn: `func f(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}`,
			want: `b0 entry: {s := 0} ->b1
b1 range.head: {for _, x := range xs { s += x }} F->b2 C->b4
b2 range.done: {return s} ->b3
b3 exit:
b4 range.body: {s += x} ->b1
`,
		},
		{
			name: "switch_fallthrough",
			fn: `func f(x int) int {
	switch x {
	case 0:
		return 1
	case 1:
		x = 2
		fallthrough
	case 2:
		x = 3
	default:
		x = 4
	}
	return x
}`,
			want: `b0 entry: {x} C->b1 C->b2 C->b3 C->b5
b1 case: {x = 4} ->b4
b2 case: {x = 2} ->b3
b3 case: {x = 3} ->b4
b4 switch.done: {return x} ->b6
b5 case: {return 1} ->b6
b6 exit:
`,
		},
		{
			name: "short_circuit",
			fn: `func f(a, b, c bool) int {
	if a && (b || !c) {
		return 1
	}
	return 0
}`,
			want: `b0 entry: {a} T->b1 F->b3
b1 cond.and: {b} F->b2 T->b4
b2 cond.or: {c} T->b3 F->b4
b3 if.done: {return 0} ->b5
b4 if.then: {return 1} ->b5
b5 exit:
`,
		},
		{
			name: "forever",
			fn: `func f() {
	for {
	}
}`,
			want: `b0 entry: ->b1
b1 for.body: ->b1
`,
			noExit: true,
		},
		{
			name: "break_continue",
			fn: `func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		if i == 7 {
			break
		}
		s += i
	}
	return s
}`,
			want: `b0 entry: {s := 0} {i := 0} ->b1
b1 for.head: {i < n} T->b2 F->b5
b2 for.body: {i == 3} F->b3 T->b7
b3 if.done: {i == 7} F->b4 T->b5
b4 if.done: {s += i} ->b7
b5 for.done: {return s} ->b6
b6 exit:
b7 for.post: {i++} ->b1
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, fset := parseBody(t, tc.fn)
			c := analysis.BuildCFG(body)
			if err := c.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if got := c.String(fset); got != tc.want {
				t.Errorf("CFG mismatch:\n--- got ---\n%s--- want ---\n%s", got, tc.want)
			}
			if (c.Exit == nil) != tc.noExit {
				t.Errorf("Exit = %v, want nil: %v", c.Exit, tc.noExit)
			}
		})
	}
}

// TestBuildCFGEdgeCases pins the constructs the analyzers meet rarely
// enough that a regression would otherwise hide until a real hot path
// uses one: defer (a plain statement, control does not fork), labeled
// break/continue (edges target the labeled loop's done/post block, not
// the innermost one), goto with labels (label blocks, including a
// backward edge forming a loop), and range-over-int (same head/body
// shape as range over a slice).
func TestBuildCFGEdgeCases(t *testing.T) {
	cases := []struct {
		name, fn, want string
	}{
		{
			name: "defer_is_straightline",
			fn: `func f() int {
	x := 0
	defer done()
	if x > 0 {
		defer undo()
	}
	return x
}`,
			want: `b0 entry: {x := 0} {defer done()} {x > 0} T->b1 F->b2
b1 if.then: {defer undo()} ->b2
b2 if.done: {return x} ->b3
b3 exit:
`,
		},
		{
			name: "labeled_break_continue",
			fn: `func f(m [][]int) int {
L:
	for i := 0; i < len(m); i++ {
		for j := 0; j < len(m[i]); j++ {
			if m[i][j] < 0 {
				continue L
			}
			if m[i][j] == 9 {
				break L
			}
		}
	}
	return 0
}`,
			// continue L jumps to the OUTER post (b10 {i++}), break L to
			// the OUTER done (b8), both crossing the inner loop entirely.
			want: `b0 entry: ->b1
b1 label.L: {i := 0} ->b2
b2 for.head: {i < len(m)} T->b3 F->b8
b3 for.body: {j := 0} ->b4
b4 for.head: {j < len(m[i])} T->b5 F->b10
b5 for.body: {m[i][j] < 0} F->b6 T->b10
b6 if.done: {m[i][j] == 9} F->b7 T->b8
b7 for.post: {j++} ->b4
b8 for.done: {return 0} ->b9
b9 exit:
b10 for.post: {i++} ->b2
`,
		},
		{
			name: "goto_backward_loop",
			fn: `func f(n int) int {
	i := 0
loop:
	if i < n {
		i++
		goto loop
	}
	goto done
done:
	return i
}`,
			// The backward goto makes b1 a loop head; the forward goto
			// collapses into the fallthrough edge to label.done.
			want: `b0 entry: {i := 0} ->b1
b1 label.loop: {i < n} F->b2 T->b4
b2 label.done: {return i} ->b3
b3 exit:
b4 if.then: {i++} ->b1
`,
		},
		{
			name: "range_over_int",
			fn: `func f(n int) int {
	s := 0
	for i := range n {
		s += i
	}
	return s
}`,
			want: `b0 entry: {s := 0} ->b1
b1 range.head: {for i := range n { s += i }} F->b2 C->b4
b2 range.done: {return s} ->b3
b3 exit:
b4 range.body: {s += i} ->b1
`,
		},
		{
			// A select with no default arm dispatches to its cases with
			// no bypass edge: the only way past the select is through an
			// arm, which is exactly the blocking semantics goroleak's
			// releasable-arm rule depends on. Each arm's comm statement
			// is the first node of its case block.
			name: "select_blocking_worker",
			fn: `func f(stop, wake chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-wake:
			work()
		}
	}
}`,
			want: `b0 entry: ->b1
b1 for.body: C->b2 C->b3
b2 select.case: {<-wake} {work()} ->b1
b3 select.case: {<-stop} {return} ->b4
b4 exit:
`,
		},
		{
			// A default arm is a case block with no comm statement: the
			// select can always take it, so the non-blocking wake-send
			// idiom (chanprotocol's required shape) never parks.
			name: "select_with_default",
			fn: `func f(wake chan struct{}) bool {
	select {
	case wake <- struct{}{}:
		return true
	default:
		return false
	}
}`,
			want: `b0 entry: C->b1 C->b2
b1 select.case: {return false} ->b3
b2 select.case: {wake <- struct{}{}} {return true} ->b3
b3 exit:
`,
		},
		{
			// A go statement is a straight-line node in the spawner's
			// CFG — the literal's body contributes no blocks or edges
			// here (it is its own function), so spawner-side dataflow
			// never sees the goroutine's blocking operations.
			name: "go_statement_is_straightline",
			fn: `func f(stop chan struct{}) {
	go func() {
		<-stop
	}()
	other()
}`,
			want: `b0 entry: {go func() { <-stop }()} {other()} ->b1
b1 exit:
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, fset := parseBody(t, tc.fn)
			c := analysis.BuildCFG(body)
			if err := c.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if got := c.String(fset); got != tc.want {
				t.Errorf("CFG mismatch:\n--- got ---\n%s--- want ---\n%s", got, tc.want)
			}
		})
	}
}

// TestBuildCFGConditionEdges verifies every conditional edge carries
// its controlling leaf condition, so Refine always has something to
// refine on.
func TestBuildCFGConditionEdges(t *testing.T) {
	body, _ := parseBody(t, `func f(a, b bool, x int) int {
	if a || (b && x > 0) {
		return x
	}
	for x < 10 {
		x++
	}
	return 0
}`)
	c := analysis.BuildCFG(body)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	conds := 0
	for _, blk := range c.Blocks {
		for _, e := range blk.Succs {
			if e.Kind == analysis.EdgeTrue || e.Kind == analysis.EdgeFalse {
				if e.Cond == nil {
					t.Errorf("conditional edge b%d->b%d lacks Cond", e.From.Index, e.To.Index)
					continue
				}
				conds++
				if be, ok := e.Cond.(*ast.BinaryExpr); ok {
					if be.Op.String() == "&&" || be.Op.String() == "||" {
						t.Errorf("edge b%d->b%d carries undecomposed short-circuit condition", e.From.Index, e.To.Index)
					}
				}
			}
		}
	}
	// a, b, x > 0 (two out-edges each) plus the loop head's x < 10.
	if conds != 8 {
		t.Errorf("got %d conditional edges, want 8", conds)
	}
}

// FuzzBuildCFG asserts the structural invariants (Validate: entry at
// block 0, mirrored succ/pred edges, reachability, conditions on
// conditional edges) over arbitrary parseable function bodies.
func FuzzBuildCFG(f *testing.F) {
	seeds := []string{
		"if a > 0 { return a }\nreturn b",
		"for i := 0; i < a; i++ { b += i; if b > 9 { break } }\nreturn b",
		"switch a {\ncase 1:\n\treturn 2\ncase 3, 4:\n\ta++\nfallthrough\ndefault:\n\ta--\n}\nreturn a",
		"for { if ok { continue }; break }",
		"L:\nfor i := range xs { for range xs { if ok { break L }; goto L } }",
		"if ok && a > b || !ok { return a }\nreturn b",
		"select {}",
		"switch v := any(a).(type) {\ncase int:\n\treturn v\ndefault:\n\treturn 0\n}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		src := "package p\nfunc f(a, b int, ok bool, xs []int) int {\n" + body + "\n}"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "x.go", src, 0)
		if err != nil {
			t.Skip()
		}
		decl, ok := file.Decls[0].(*ast.FuncDecl)
		if !ok || decl.Body == nil {
			t.Skip()
		}
		c := analysis.BuildCFG(decl.Body)
		if c == nil {
			t.Fatal("BuildCFG returned nil for non-nil body")
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("invalid CFG for %q: %v\n%s", body, err, c.String(fset))
		}
		// Rendering must not panic and lists every block exactly once.
		if got := strings.Count(c.String(fset), "\n"); got != len(c.Blocks) {
			t.Fatalf("String rendered %d lines for %d blocks", got, len(c.Blocks))
		}
		// The solver invariant: at Forward's fixed point every block
		// reachable from Entry through Succs has an In fact.
		res := analysis.Forward(c, struct{}{}, analysis.FlowFuncs[struct{}]{
			Clone:    func(f struct{}) struct{} { return f },
			Join:     func(dst, _ struct{}) struct{} { return dst },
			Equal:    func(_, _ struct{}) bool { return true },
			Transfer: func(_ ast.Node, f struct{}) struct{} { return f },
		})
		seen := map[*analysis.Block]bool{c.Entry: true}
		for stack := []*analysis.Block{c.Entry}; len(stack) > 0; {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := res.In[b]; !ok {
				t.Fatalf("reachable block %d (%s) has no In fact for %q\n%s", b.Index, b.What, body, c.String(fset))
			}
			for _, e := range b.Succs {
				if !seen[e.To] {
					seen[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
	})
}
