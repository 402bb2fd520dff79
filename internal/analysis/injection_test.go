package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// analyzeSynthetic type-checks src as a single-file package under the
// given import path (imports resolved through export data) and runs the
// full suite over it. This simulates editing a real module package
// without touching the tree.
func analyzeSynthetic(t *testing.T, importPath, src string) []analysis.Finding {
	t.Helper()
	file := filepath.Join(t.TempDir(), "x.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := analysis.NewLoader("")
	unit, err := analysis.CheckFiles(l.Fset, importPath, []string{file}, l)
	if err != nil {
		t.Fatalf("CheckFiles: %v", err)
	}
	findings, err := analysis.RunAnalyzers([]*analysis.Unit{unit}, analysis.All())
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	return findings
}

// Acceptance pin: a bare time.Now() added to internal/fssga must fail
// the lint gate.
func TestInjectedTimeNowInFssgaIsFlagged(t *testing.T) {
	findings := analyzeSynthetic(t, "repro/internal/fssga", `package fssga

import "time"

func stamp() int64 { return time.Now().UnixNano() }
`)
	if len(findings) != 1 || findings[0].Analyzer != "detrand" {
		t.Fatalf("findings = %v, want exactly one detrand diagnostic", findings)
	}
}

// Acceptance pin: removing the sort after a map-range accumulation must
// fail the lint gate, while the sorted original stays clean (the
// false-positive guard).
func TestSortRemovalBeforeMapRangeIsFlagged(t *testing.T) {
	const sorted = `package fssga

import "sort"

func keys(m map[int]int) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
`
	if findings := analyzeSynthetic(t, "repro/internal/fssga", sorted); len(findings) != 0 {
		t.Fatalf("sorted map-range wrongly flagged: %v", findings)
	}
	const unsorted = `package fssga

func keys(m map[int]int) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
`
	findings := analyzeSynthetic(t, "repro/internal/fssga", unsorted)
	if len(findings) != 1 || findings[0].Analyzer != "maporder" {
		t.Fatalf("findings = %v, want exactly one maporder diagnostic", findings)
	}
}

// byAnalyzer filters findings to one analyzer's.
func byAnalyzer(findings []analysis.Finding, name string) []analysis.Finding {
	var out []analysis.Finding
	for _, f := range findings {
		if f.Analyzer == name {
			out = append(out, f)
		}
	}
	return out
}

// Acceptance pin: an order-dependent ForEach fold added to a real
// automaton package must fail the lint gate.
func TestInjectedOrderDependentFoldIsFlagged(t *testing.T) {
	findings := analyzeSynthetic(t, "repro/internal/algo/randomwalk", `package randomwalk

import (
	"math/rand"

	"repro/internal/fssga"
)

type S int8

func lastSeen(self S, view *fssga.View[S], rnd *rand.Rand) S {
	var last S
	view.ForEach(func(t S, _ int) {
		last = t
	})
	return last
}
`)
	got := byAnalyzer(findings, "symcontract")
	if len(got) != 1 || !strings.Contains(got[0].Message, "depends on iteration order") {
		t.Fatalf("findings = %v, want one symcontract order-dependence diagnostic", findings)
	}
}

// Acceptance pin: an observation cap that data-flows from the network
// size must fail the lint gate, through a constructor + struct-field
// chain the flow-insensitive taint summary has to follow.
func TestInjectedNSizeCapIsFlagged(t *testing.T) {
	findings := analyzeSynthetic(t, "repro/internal/algo/census", `package census

import (
	"math/rand"

	"repro/internal/fssga"
	"repro/internal/graph"
)

type S int8

type auto struct{ cap int }

func newAuto(g *graph.Graph) auto { return auto{cap: g.NumNodes()} }

func (a auto) Step(self S, view *fssga.View[S], rnd *rand.Rand) S {
	if view.Count(a.cap, func(s S) bool { return s > 0 }) > 0 {
		return 1
	}
	return self
}
`)
	sym := byAnalyzer(findings, "symcontract")
	if len(sym) != 1 || !strings.Contains(sym[0].Message, "derives from the network size") {
		t.Fatalf("findings = %v, want one symcontract n-taint diagnostic", findings)
	}
	cap := byAnalyzer(findings, "capinfer")
	if len(cap) != 1 || !strings.Contains(cap[0].Message, "cannot infer a bounded footprint") {
		t.Fatalf("findings = %v, want one capinfer unbounded-footprint diagnostic", findings)
	}
}

// Acceptance pin: an fmt.Sprintf (boxing its operands into ...any and
// crossing into fmt) added to a //fssga:hotpath function must fail the
// lint gate, while the same function unmarked stays clean.
func TestInjectedSprintfInHotpathIsFlagged(t *testing.T) {
	const unmarked = `package fssga

import "fmt"

func label(id int) string { return fmt.Sprintf("node-%d", id) }
`
	if findings := analyzeSynthetic(t, "repro/internal/fssga", unmarked); len(findings) != 0 {
		t.Fatalf("unmarked Sprintf wrongly flagged: %v", findings)
	}
	const marked = `package fssga

import "fmt"

//fssga:hotpath
func label(id int) string { return fmt.Sprintf("node-%d", id) }
`
	findings := analyzeSynthetic(t, "repro/internal/fssga", marked)
	hot := byAnalyzer(findings, "hotalloc")
	if len(hot) != 1 || !strings.Contains(hot[0].Message, "fmt.Sprintf") {
		t.Fatalf("findings = %v, want one hotalloc fmt.Sprintf diagnostic", findings)
	}
}

// Acceptance pin: HotpathReport's transitive verdicts are a least fixed
// point, so a call cycle cannot hide an allocation. A allocates and
// calls B, B calls A back; both must be flagged on every run, whatever
// order the marked functions are visited in.
func TestHotpathReportCycleIsFlagged(t *testing.T) {
	const src = `package hot

//fssga:hotpath
func A(n int) []int {
	if n > 0 {
		B(n - 1)
	}
	return make([]int, n)
}

//fssga:hotpath
func B(n int) { A(n) }
`
	file := filepath.Join(t.TempDir(), "x.go")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l := analysis.NewLoader("")
	unit, err := analysis.CheckFiles(l.Fset, "hot", []string{file}, l)
	if err != nil {
		t.Fatalf("CheckFiles: %v", err)
	}
	for run := 0; run < 64; run++ {
		funcs, err := analysis.HotpathReport([]*analysis.Unit{unit})
		if err != nil {
			t.Fatal(err)
		}
		if len(funcs) != 2 {
			t.Fatalf("HotpathReport = %v, want A and B", funcs)
		}
		for _, f := range funcs {
			if f.Verdict != analysis.VerdictFlagged {
				t.Fatalf("run %d: %s verdict %q, want %q", run, f.Name, f.Verdict, analysis.VerdictFlagged)
			}
		}
	}
}

// shardBody wraps one worker-round body in the minimum scaffolding that
// makes it a real func(pool *shardPool, worker int) literal under the
// engine's import path.
const shardBodyPrelude = `package fssga

type shardPool struct{ n int }

func (p *shardPool) claim() int { p.n++; return p.n - 1 }

type net struct {
	states []int
	next   []int
}

func (e *net) round(run func(func(pool *shardPool, worker int))) {
	snapshot, next := e.states, e.next
	_ = snapshot
	_ = next
	run(func(pool *shardPool, w int) {
		body(pool, w, snapshot, next)
	})
}
`

// Acceptance pin: a store to next outside the claimed shard range must
// fail the lint gate; the claimed-range original stays clean.
func TestInjectedOutOfRangeNextStoreIsFlagged(t *testing.T) {
	const clean = shardBodyPrelude + `
func body(pool *shardPool, w int, snapshot, next []int) {
	s := pool.claim()
	next[s] = snapshot[s] + 1
}
`
	// The helper shape keeps the literal clean; the violating bodies
	// below inline the stores into the literal itself.
	if findings := analyzeSynthetic(t, "repro/internal/fssga", clean); len(findings) != 0 {
		t.Fatalf("claimed-range store wrongly flagged: %v", findings)
	}
	const outOfRange = `package fssga

type shardPool struct{ n int }

func (p *shardPool) claim() int { p.n++; return p.n - 1 }

type net struct {
	states []int
	next   []int
}

func (e *net) round(run func(func(pool *shardPool, worker int))) {
	snapshot, next := e.states, e.next
	run(func(pool *shardPool, w int) {
		s := pool.claim()
		next[s+1] = snapshot[s] // claimed shard is s, not s+1 — but s+1 is still derived
		next[0] = snapshot[s]   // this is the underivable store
	})
}
`
	findings := byAnalyzer(analyzeSynthetic(t, "repro/internal/fssga", outOfRange), "shardsafe")
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "not derived from the worker's claimed shard range") {
		t.Fatalf("findings = %v, want one shardsafe underived-store diagnostic", findings)
	}
}

// Acceptance pin: retaining a slice of next in captured scratch across
// rounds must fail the lint gate, as must writing the snapshot.
func TestInjectedRetainedScratchAndCurWriteAreFlagged(t *testing.T) {
	const bad = `package fssga

type shardPool struct{ n int }

func (p *shardPool) claim() int { p.n++; return p.n - 1 }

type net struct {
	states []int
	next   []int
	keep   []int
}

var lastShard int

func (e *net) round(run func(func(pool *shardPool, worker int))) {
	cur, next := e.states, e.next
	var scratch []int
	run(func(pool *shardPool, w int) {
		s := pool.claim()
		scratch = next[s:]  // retained per-round scratch
		cur[s] = 0          // write to the read side
		e.keep = scratch    // field write on the captured engine
		lastShard = s       // package-level write
		_ = w
	})
	_ = scratch
}
`
	findings := byAnalyzer(analyzeSynthetic(t, "repro/internal/fssga", bad), "shardsafe")
	want := []string{
		"retained across rounds",
		"read-side snapshot",
		"field of captured",
		"package-level variable",
	}
	if len(findings) != len(want) {
		t.Fatalf("findings = %v, want %d shardsafe diagnostics", findings, len(want))
	}
	for i, substr := range want {
		if !strings.Contains(findings[i].Message, substr) {
			t.Fatalf("finding %d = %v, want message containing %q", i, findings[i], substr)
		}
	}
}

// Acceptance pin: unclamped arithmetic on returned state must fail the
// lint gate, while the mod-reduced original stays clean.
func TestInjectedUnboundedStateArithmeticIsFlagged(t *testing.T) {
	const clamped = `package synchronizer

import (
	"math/rand"

	"repro/internal/fssga"
)

type S int8

func tick(self S, view *fssga.View[S], rnd *rand.Rand) S {
	return (self + 1) % 4
}
`
	if findings := analyzeSynthetic(t, "repro/internal/algo/synchronizer", clamped); len(findings) != 0 {
		t.Fatalf("mod-reduced step wrongly flagged: %v", findings)
	}
	const unclamped = `package synchronizer

import (
	"math/rand"

	"repro/internal/fssga"
)

type S int8

func tick(self S, view *fssga.View[S], rnd *rand.Rand) S {
	return self + 1
}
`
	findings := analyzeSynthetic(t, "repro/internal/algo/synchronizer", unclamped)
	fin := byAnalyzer(findings, "finstate")
	if len(fin) != 1 || !strings.Contains(fin[0].Message, "grows without bound") {
		t.Fatalf("findings = %v, want one finstate unbounded-growth diagnostic", findings)
	}
}
