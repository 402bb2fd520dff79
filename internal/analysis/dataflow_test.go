package analysis_test

import (
	"go/ast"
	"reflect"
	"testing"

	"repro/internal/analysis"
)

// nameSet is a may-assigned-variables fact: purely syntactic, so the
// tests need no type information.
type nameSet map[string]bool

func nameSetFuncs() analysis.FlowFuncs[nameSet] {
	addNames := func(n ast.Node, f nameSet) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					f[id.Name] = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := n.X.(*ast.Ident); ok {
				f[id.Name] = true
			}
		}
	}
	return analysis.FlowFuncs[nameSet]{
		Clone: func(f nameSet) nameSet {
			out := make(nameSet, len(f))
			for k := range f {
				out[k] = true
			}
			return out
		},
		Join: func(dst, src nameSet) nameSet {
			for k := range src {
				dst[k] = true
			}
			return dst
		},
		Equal: func(a, b nameSet) bool { return reflect.DeepEqual(a, b) },
		Transfer: func(n ast.Node, f nameSet) nameSet {
			addNames(n, f)
			return f
		},
		Refine: func(e *analysis.Edge, f nameSet) nameSet {
			// Mark which polarity of an ident condition this path took,
			// so the tests can see edge refinement firing.
			if id, ok := e.Cond.(*ast.Ident); ok {
				if e.Kind == analysis.EdgeTrue {
					f["?"+id.Name] = true
				} else {
					f["!"+id.Name] = true
				}
			}
			return f
		},
	}
}

// outOf returns the fixed-point Out fact of the first block whose
// rendered role matches what.
func outOf(t *testing.T, c *analysis.CFG, res *analysis.FlowResult[nameSet], what string) nameSet {
	t.Helper()
	for _, b := range c.Blocks {
		if b.What == what {
			return res.Out[b]
		}
	}
	t.Fatalf("no block %q in CFG", what)
	return nil
}

func TestForwardJoinsBranches(t *testing.T) {
	body, _ := parseBody(t, `func f(c bool) {
	a := 1
	if c {
		b := 2
		_ = b
	} else {
		d := 3
		_ = d
	}
	e := 4
	_ = e
}`)
	c := analysis.BuildCFG(body)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	res := analysis.Forward(c, nameSet{}, nameSetFuncs())

	then := outOf(t, c, res, "if.then")
	if !then["a"] || !then["b"] || then["d"] {
		t.Errorf("then-branch fact = %v, want a,b without d", then)
	}
	if !then["?c"] || then["!c"] {
		t.Errorf("then-branch fact = %v, want the ?c refinement only", then)
	}
	els := outOf(t, c, res, "if.else")
	if !els["!c"] || els["?c"] || els["b"] {
		t.Errorf("else-branch fact = %v, want !c without b", els)
	}
	done := outOf(t, c, res, "if.done")
	for _, want := range []string{"a", "b", "d", "e", "?c", "!c"} {
		if !done[want] {
			t.Errorf("join fact %v missing %q", done, want)
		}
	}
}

func TestForwardLoopFixpoint(t *testing.T) {
	body, _ := parseBody(t, `func g(n int) {
	x := 0
	for i := 0; i < n; i++ {
		y := x
		_ = y
	}
	z := 5
	_ = z
}`)
	c := analysis.BuildCFG(body)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	res := analysis.Forward(c, nameSet{}, nameSetFuncs())
	// The loop head joins the entry and back-edge facts: y and i++
	// flow around, so the post-loop fact carries everything.
	done := outOf(t, c, res, "for.done")
	for _, want := range []string{"x", "i", "y", "z"} {
		if !done[want] {
			t.Errorf("post-loop fact %v missing %q", done, want)
		}
	}
	// The pre-loop entry fact must not be polluted by loop-body names.
	if in := res.In[c.Entry]; len(in) != 0 {
		t.Errorf("entry In fact = %v, want empty boundary", in)
	}
}

func TestReplayIntermediateFacts(t *testing.T) {
	body, _ := parseBody(t, `func h() {
	a := 1
	b := 2
	c := 3
	_, _, _ = a, b, c
}`)
	c := analysis.BuildCFG(body)
	res := analysis.Forward(c, nameSet{}, nameSetFuncs())
	var sizes []int
	res.Replay(c.Entry, func(n ast.Node, before nameSet) {
		names := 0
		for k := range before {
			if k[0] != '?' && k[0] != '!' {
				names++
			}
		}
		sizes = append(sizes, names)
	})
	// Before facts grow one assignment at a time: {}, {a}, {a,b}, {a,b,c}.
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("Replay before-fact sizes = %v, want %v", sizes, want)
	}
}

// TestSummarizeLeastFixpoint pins the call-graph solver on a cycle, a
// self-loop and a node nothing reaches: each node's fact is the union of
// its own bit and every bit it reaches, whatever order nodes arrive in.
func TestSummarizeLeastFixpoint(t *testing.T) {
	succs := map[string][]string{
		"a": {"b"},      // a <-> b is a cycle
		"b": {"a", "c"}, // ...that reaches c
		"c": {"c"},      // self-loop
		"d": {"a", "x"}, // nothing reaches d; x is not a node
		"e": nil,        // isolated
	}
	bit := map[string]uint{"a": 1, "b": 2, "c": 4, "d": 8, "e": 16}
	want := map[string]uint{"a": 7, "b": 7, "c": 4, "d": 15, "e": 16}
	orders := [][]string{
		{"a", "b", "c", "d", "e"},
		{"e", "d", "c", "b", "a"},
		{"c", "a", "e", "b", "d"},
	}
	for _, nodes := range orders {
		got := analysis.Summarize(nodes,
			func(n string) []string { return succs[n] },
			func(n string) uint { return bit[n] },
			func(dst, src uint) (uint, bool) { return dst | src, dst|src != dst })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("order %v: Summarize = %v, want %v", nodes, got, want)
		}
	}
}
