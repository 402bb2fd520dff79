// Package analysis is a small, dependency-free static-analysis framework
// in the spirit of golang.org/x/tools/go/analysis, together with the five
// fssga-vet analyzers that prove this repository's determinism and
// symmetry contracts at the source level:
//
//   - detrand: no wall-clock or process-global randomness in
//     determinism-critical packages (replay digests depend on it);
//   - maporder: no map-iteration order leaking into slices, writers or
//     digests without an intervening sort;
//   - viewpure: FSSGA transition functions treat their View as a
//     read-only, non-retainable observation ("nodes read neighbour
//     states, write only their own", Pritchard & Vempala Section 2);
//   - seedplumb: test files pin their randomness (testing/quick configs
//     come from internal/testutil, no time-seeded or global RNGs);
//   - globalwrite: no writes to package-level variables reachable from
//     the parallel engine's worker entry points (Automaton.Step and `go`
//     bodies), which would race under SyncRoundParallel.
//
// Three model-contract analyzers sit on a dataflow layer (a CFG
// builder in cfg.go, the two fixed-point solvers of dataflow.go — over
// CFGs and over callgraph.go's shared call graph — and interprocedural
// taint summaries in summary.go) and prove the FSSGA model itself:
//
//   - symcontract: transition functions observe the View only as a
//     multiset — order-invariant ForEach folds, constant observation
//     caps (no data flow from the network size), no node identity
//     captured into Step-shaped closures (Def. 3.1, Theorem 3.7);
//   - finstate: the state space reachable from a Step stays finite —
//     no unclamped arithmetic on state values, no state types with
//     unbounded value domains (Section 2);
//   - capinfer: infers each automaton's mod-thresh footprint, emitted
//     by fssga-vet -contracts and cross-checked in internal/mc against
//     enumeration-derived witness bounds (Theorem 3.7).
//
// The framework loads and type-checks packages with the standard library
// only (go/parser + go/types, imports resolved through `go list -export`
// export data with a source-importer fallback), so it runs in hermetic
// build environments where golang.org/x/tools is unavailable.
//
// Two hot-path analyzers extend the suite beyond determinism to the
// engine's performance contracts (the sharded double-buffered rounds and
// the O(log deg) hub aggregation both depend on them):
//
//   - hotalloc: functions marked //fssga:hotpath must be provably free
//     of heap allocation — no append growth, interface boxing, escaping
//     composite literals, closures or map/slice/string conversions —
//     with audited exceptions carried by //fssga:alloc(reason);
//   - shardsafe: inside shard-pool worker round bodies, stores to the
//     double-buffered next vector must be index-derived from the
//     worker's claimed shard range, the read snapshot is read-only, and
//     captured scratch must not be retained across rounds.
//
// Four concurrency analyzers sit on the conc.go effect layer
// (interprocedural summaries of spawns, channel operations, select
// arms, mutex pairs and atomic accesses) and prove the scheduler's side
// of the model (Def 3.11: fair scheduling, constant work per
// activation):
//
//   - goroleak: every `go` statement in non-test code has a proven
//     termination path — blocking receives are releasable by a close
//     reachable from an exported owner, unconditional loops contain an
//     escape;
//   - chanprotocol: close-at-most-once, no send-after-close, wake-channel
//     sends are non-blocking select/default, buffered capacities are
//     named constants;
//   - lockorder: unlock-on-all-paths over the CFG, no double
//     acquisition, no lock held across a blocking channel operation, one
//     unit-wide lock acquisition order;
//   - atomicmix: a field accessed via sync/atomic anywhere is accessed
//     atomically everywhere.
//
// A diagnostic at a call site that has been audited and found safe is
// suppressed by a directive comment placed on the flagged line or the
// line directly above it:
//
//	//fssga:nondet <reason>
//	//fssga:alloc(<reason>)
//	//fssga:conc(<reason>)
//
// Each analyzer honours exactly one directive kind (//fssga:nondet by
// default, //fssga:alloc for hotalloc, //fssga:conc for the concurrency
// analyzers), so an allocation cannot be waved through by a determinism
// audit or vice versa. The reason is free text but should say why the
// site cannot desynchronize a replay (nondet), why the allocation is
// acceptable on a hot path (alloc), or why the concurrency contract
// holds anyway (conc).
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// An Analyzer describes one invariant-checking pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and -analyzers filters.
	Name string

	// Doc is a one-paragraph description of the contract the pass proves.
	Doc string

	// AppliesTo, if non-nil, restricts the packages the driver runs this
	// pass over (it receives the unit's import path). analysistest
	// bypasses the filter so fixtures exercise passes directly.
	AppliesTo func(pkgPath string) bool

	// Directive, if non-empty, is the suppression directive comment this
	// analyzer honours instead of the default //fssga:nondet. Analyzers
	// proving different contracts use distinct directives so an audit
	// for one contract cannot silently absorb violations of another.
	Directive string

	// Run executes the pass over one type-checked unit, reporting
	// findings through pass.Report.
	Run func(pass *Pass) error
}

// directive returns the suppression directive the analyzer honours.
func (a *Analyzer) directive() string {
	if a.Directive != "" {
		return a.Directive
	}
	return NondetDirective
}

// A Pass connects an Analyzer to one type-checked unit of source code.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string // import path of the unit
	Pkg      *types.Package
	Info     *types.Info

	// Report delivers one diagnostic. The driver applies //fssga:nondet
	// suppression and ordering; passes just report everything they find.
	Report func(d Diagnostic)

	unit *Unit // holds the summaries shared across the unit's passes
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned within the unit's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved diagnostic as emitted by the driver: position
// translated to file/line/column, tagged with the analyzer that found it.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// NondetDirective is the default allowlist comment: it suppresses a
// determinism-contract finding on its own line or the line below.
const NondetDirective = "//fssga:nondet"

// AllocDirective is the hot-path allowlist comment: //fssga:alloc(reason)
// suppresses a hotalloc finding on its own line or the line below. The
// parenthesized reason is mandatory — an unexplained allocation waiver
// is not a directive at all.
const AllocDirective = "//fssga:alloc"

// directiveReason parses a comment against a directive prefix. It
// accepts the two committed forms — "//fssga:nondet <reason>" and
// "//fssga:alloc(<reason>)" — and rejects longer identifiers sharing the
// prefix (e.g. //fssga:nondeterministic) and parenthesized directives
// with no closing paren or an empty reason.
func directiveReason(text, prefix string) (reason string, ok bool) {
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := text[len(prefix):]
	if strings.HasPrefix(rest, "(") {
		i := strings.LastIndex(rest, ")")
		if i < 1 {
			return "", false
		}
		reason = strings.TrimSpace(rest[1:i])
		return reason, reason != ""
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// suppressedLines maps filename -> set of line numbers carrying the
// given directive.
func suppressedLines(fset *token.FileSet, files []*ast.File, directive string) map[string]map[int]bool {
	sup := make(map[string]map[int]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, ok := directiveReason(c.Text, directive); !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				m := sup[pos.Filename]
				if m == nil {
					m = make(map[int]bool)
					sup[pos.Filename] = m
				}
				m[pos.Line] = true
			}
		}
	}
	return sup
}

// newPass connects analyzer a to unit u; the caller sets Report.
func newPass(u *Unit, a *Analyzer) *Pass {
	return &Pass{Analyzer: a, Fset: u.Fset, Files: u.Files, Path: u.Path, Pkg: u.Pkg, Info: u.Info, unit: u}
}

// rawFindings executes the analyzers over the units, honouring each
// analyzer's AppliesTo filter but NOT the //fssga:nondet directive: every
// diagnostic the passes produce is returned. The audit layer uses the
// raw stream to tell live directives from stale ones.
func rawFindings(units []*Unit, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, u := range units {
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(u.Path) {
				continue
			}
			pass := newPass(u, a)
			pass.Report = func(d Diagnostic) {
				pos := u.Fset.Position(d.Pos)
				findings = append(findings, Finding{
					File:     pos.Filename,
					Line:     pos.Line,
					Col:      pos.Column,
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, u.Path, err)
			}
		}
	}
	sortFindings(findings)
	return findings, nil
}

// sortFindings orders findings by file, line, column, analyzer, message —
// a total order, so JSON output is byte-stable across runs.
func sortFindings(findings []Finding) {
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Col, b.Col),
			cmp.Compare(a.Analyzer, b.Analyzer), cmp.Compare(a.Message, b.Message))
	})
}

// RunAnalyzers executes the analyzers over the units, honouring each
// analyzer's AppliesTo filter and its suppression directive
// (//fssga:nondet by default, //fssga:alloc for hotalloc), and returns
// all surviving findings sorted by file, line, column, analyzer, message.
func RunAnalyzers(units []*Unit, analyzers []*Analyzer) ([]Finding, error) {
	raw, err := rawFindings(units, analyzers)
	if err != nil {
		return nil, err
	}
	// Suppression maps are per directive kind: a finding is absorbed only
	// by the directive its analyzer honours.
	directiveOf := make(map[string]string) // analyzer name -> directive
	sup := make(map[string]map[string]map[int]bool)
	for _, a := range analyzers {
		d := a.directive()
		directiveOf[a.Name] = d
		if sup[d] == nil {
			sup[d] = make(map[string]map[int]bool)
		}
	}
	for _, u := range units {
		for d, byFile := range sup {
			for file, lines := range suppressedLines(u.Fset, u.Files, d) {
				m := byFile[file]
				if m == nil {
					m = make(map[int]bool)
					byFile[file] = m
				}
				for line := range lines {
					m[line] = true
				}
			}
		}
	}
	findings := raw[:0]
	for _, f := range raw {
		if m := sup[directiveOf[f.Analyzer]][f.File]; m != nil && (m[f.Line] || m[f.Line-1]) {
			continue
		}
		findings = append(findings, f)
	}
	if len(findings) == 0 {
		return nil, nil
	}
	return findings, nil
}

// All returns the full fssga-vet suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		Detrand, Maporder, Viewpure, Seedplumb, Globalwrite,
		Symcontract, Finstate, Capinfer, Hotalloc, Shardsafe,
		Goroleak, Chanprotocol, Lockorder, Atomicmix,
	}
}

// Lookup resolves a comma-separated analyzer list ("detrand,maporder")
// against the suite, preserving suite order.
func Lookup(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	want := make(map[string]bool)
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("analysis: unknown analyzer(s) %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// DeterminismCritical reports whether a package participates in the
// determinism contract: everything in the module except the analyzers
// themselves and the examples. The replay-critical core (internal/fssga,
// internal/mc, internal/chaos, internal/trace, internal/algo/...) is the
// motivating set; the remaining library and cmd packages feed artifacts
// and logs that replay verification also consumes, so they are held to
// the same standard.
func DeterminismCritical(path string) bool {
	// Canonicalize the unit variants the go vet driver presents:
	// "pkg [pkg.test]" (test build of pkg) and "pkg_test" (external test
	// package) are governed by pkg's classification.
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, "_test")
	if !strings.HasPrefix(path, "repro") {
		return true // fixtures and external callers opt in wholesale
	}
	for _, skip := range []string{"repro/internal/analysis", "repro/examples"} {
		if path == skip || strings.HasPrefix(path, skip+"/") {
			return false
		}
	}
	return true
}

// IsTestFile reports whether the file containing pos is a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
