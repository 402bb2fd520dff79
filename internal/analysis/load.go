package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Unit is one type-checked body of source code an analyzer runs over:
// either a module package together with its in-package test files, an
// external _test package, or an analysistest fixture.
type Unit struct {
	Path  string // import path ("repro/internal/fssga", "repro/internal/fssga_test", fixture name)
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Unit-wide summaries that several analyzers consume, built by the
	// first pass that asks and shared by every later pass over the unit
	// (neither is modified after construction): the call graph and the
	// concurrency-effect layer.
	cg   *callGraph
	conc *concCtx
}

// A Loader parses and type-checks packages using only the standard
// library. Imports are resolved through compiler export data obtained
// from `go list -export` (fetched lazily per import path and cached), so
// no dependency is ever type-checked twice and no external module is
// required. Packages under FixtureRoot are instead type-checked from
// source, which lets analysistest fixtures import small fake siblings.
//
// A Loader is not safe for concurrent use.
type Loader struct {
	Fset *token.FileSet

	// Dir is the working directory for go list invocations ("" = cwd).
	// It must lie inside the module whose packages are loaded.
	Dir string

	// FixtureRoot, when set, is a directory whose subdirectories satisfy
	// imports from source: import path "a/b" resolves to FixtureRoot/a/b
	// if that directory exists. Used by analysistest (testdata/src).
	FixtureRoot string

	exports  map[string]string // import path -> export data file
	noExport map[string]string // import path -> why go list could not provide it
	source   map[string]*types.Package
	fixtures map[string]*types.Package
	checking map[string]bool // fixture cycle guard
	gc       types.Importer
}

// NewLoader returns a Loader rooted at dir (which may be "").
func NewLoader(dir string) *Loader {
	l := &Loader{
		Fset:     token.NewFileSet(),
		Dir:      dir,
		exports:  make(map[string]string),
		noExport: make(map[string]string),
		source:   make(map[string]*types.Package),
		fixtures: make(map[string]*types.Package),
		checking: make(map[string]bool),
	}
	l.gc = importer.ForCompiler(l.Fset, "gc", l.lookupExport)
	return l
}

// lookupExport feeds the gc importer: it opens the export data for path,
// shelling out to go list on first demand.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	f, ok := l.exports[path]
	if !ok {
		if why, failed := l.noExport[path]; failed {
			return nil, fmt.Errorf("analysis: no export data for %q: %s", path, why)
		}
		if _, err := l.goList([]string{path}); err != nil {
			l.noExport[path] = err.Error()
			return nil, fmt.Errorf("analysis: no export data for %q: %w", path, err)
		}
		f, ok = l.exports[path]
		if !ok {
			l.noExport[path] = "go list succeeded but reported no export file"
			return nil, fmt.Errorf("analysis: go list provided no export data for %q", path)
		}
	}
	return os.Open(f)
}

// Import implements types.Importer. Source-checked packages take
// precedence over export data so that every unit in one load observes a
// single *types.Package per import path (type identity).
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.source[path]; ok {
		return p, nil
	}
	if p, ok := l.fixtures[path]; ok {
		return p, nil
	}
	if l.FixtureRoot != "" {
		dir := filepath.Join(l.FixtureRoot, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			u, err := l.checkFixture(path, dir)
			if err != nil {
				return nil, err
			}
			return u.Pkg, nil
		}
	}
	return l.gc.Import(path)
}

// ImportFrom implements types.ImporterFrom; dir and mode are ignored
// because the loader resolves by import path alone.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return l.Import(path)
}

// listedPackage is the subset of go list -json output the loader reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	Export       string
	DepOnly      bool
	Standard     bool
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	TestImports  []string
	XTestImports []string
	Deps         []string
}

const listFields = "ImportPath,Dir,Name,Export,DepOnly,Standard,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles,TestImports,XTestImports,Deps"

// goList runs `go list -export -deps -json <args>`, records every export
// file it reports, and returns the decoded packages in dependency order.
func (l *Loader) goList(args []string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json=" + listFields}, args...)...)
	cmd.Dir = l.Dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(errb.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("go list %s: %s", strings.Join(args, " "), msg)
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// LoadPatterns loads the module packages matched by the go package
// patterns (e.g. "./...") and returns one Unit per compilation unit:
// each package with its in-package test files, plus one per external
// _test package. Units come back in go list's dependency order.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Unit, error) {
	pkgs, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	var targets []*listedPackage
	for _, p := range pkgs {
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	// Test files may import packages outside the -deps closure (e.g.
	// testing, testing/quick); fetch their export data in one batch.
	need := make(map[string]bool)
	for _, p := range targets {
		for _, imp := range append(append([]string{}, p.TestImports...), p.XTestImports...) {
			if imp != "C" && l.exports[imp] == "" {
				need[imp] = true
			}
		}
	}
	if len(need) > 0 {
		extra := make([]string, 0, len(need))
		for imp := range need {
			extra = append(extra, imp)
		}
		sort.Strings(extra)
		more, err := l.goList(extra)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, more...)
	}

	// Everything go list reported, keyed by import path: phase 3 needs
	// dependency metadata for arbitrary test imports, not just targets.
	byPath := make(map[string]*listedPackage, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}

	// Phase 1: source-check every target's plain unit (GoFiles only) in
	// go list's dependency order, caching each package so later units
	// import the same *types.Package instead of a type-incompatible
	// export-data twin. Plain dependencies respect go list order; test
	// imports may point at any target, which is why test variants wait
	// until every plain package is cached.
	plain := make(map[string]*Unit)
	for _, p := range targets {
		if len(p.GoFiles) == 0 && len(p.CgoFiles) == 0 {
			continue
		}
		u, err := l.check(p.ImportPath, p.Dir, append(append([]string{}, p.GoFiles...), p.CgoFiles...), l)
		if err != nil {
			return nil, err
		}
		l.source[p.ImportPath] = u.Pkg
		plain[p.ImportPath] = u
	}

	// Phase 2: the analyzed units. A package with in-package tests is
	// re-checked as the test variant (GoFiles+TestGoFiles), exactly the
	// unit `go test` compiles; other targets reuse their plain unit.
	// Cross-package imports keep resolving to the plain variant, as in a
	// real build.
	var units []*Unit
	testVariant := make(map[string]*types.Package)
	for _, p := range targets {
		switch {
		case len(p.TestGoFiles) > 0:
			files := append(append([]string{}, p.GoFiles...), p.TestGoFiles...)
			u, err := l.check(p.ImportPath, p.Dir, files, l)
			if err != nil {
				return nil, err
			}
			testVariant[p.ImportPath] = u.Pkg
			units = append(units, u)
		case plain[p.ImportPath] != nil:
			units = append(units, plain[p.ImportPath])
		}
	}

	// Phase 3: external _test packages. Importing their own package
	// resolves to its test variant, so export_test.go helpers are
	// visible; and — as in the real `go test` build — every module
	// package that transitively depends on that package is re-checked
	// against the variant, so an xtest may import both its own package
	// and packages built on top of it without type-identity splits.
	for _, p := range targets {
		if len(p.XTestGoFiles) == 0 {
			continue
		}
		var imp types.Importer = l
		if tv := testVariant[p.ImportPath]; tv != nil {
			imp = &variantImporter{
				l:       l,
				path:    p.ImportPath,
				pkg:     tv,
				byPath:  byPath,
				rebuilt: make(map[string]*types.Package),
			}
		}
		xt, err := l.check(p.ImportPath+"_test", p.Dir, p.XTestGoFiles, imp)
		if err != nil {
			return nil, err
		}
		units = append(units, xt)
	}
	return units, nil
}

// variantImporter resolves one import path to a test-variant package
// and re-checks (from source) every module package depending on it, so
// all routes into the variant observe a single *types.Package. Packages
// outside the variant's dependents come from the loader's shared
// caches. Re-checked shadow packages exist only for type identity; they
// are never returned as analysis units.
type variantImporter struct {
	l       *Loader
	path    string         // the overridden import path
	pkg     *types.Package // its test variant
	byPath  map[string]*listedPackage
	rebuilt map[string]*types.Package
}

func (vi *variantImporter) Import(path string) (*types.Package, error) {
	if path == vi.path {
		return vi.pkg, nil
	}
	if p, ok := vi.rebuilt[path]; ok {
		return p, nil
	}
	lp := vi.byPath[path]
	if lp == nil || lp.Standard || !dependsOn(lp, vi.path) {
		return vi.l.Import(path)
	}
	files := append(append([]string{}, lp.GoFiles...), lp.CgoFiles...)
	u, err := vi.l.check(path, lp.Dir, files, vi)
	if err != nil {
		return nil, fmt.Errorf("analysis: re-checking %s against the %s test variant: %w", path, vi.path, err)
	}
	vi.rebuilt[path] = u.Pkg
	return u.Pkg, nil
}

func (vi *variantImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return vi.Import(path)
}

// dependsOn reports whether lp's transitive dependency closure (as
// reported by go list) contains dep.
func dependsOn(lp *listedPackage, dep string) bool {
	for _, d := range lp.Deps {
		if d == dep {
			return true
		}
	}
	return false
}

// check parses the named files in dir and type-checks them as one
// package with the given importer.
func (l *Loader) check(pkgPath, dir string, files []string, imp types.Importer) (*Unit, error) {
	paths := make([]string, len(files))
	for i, name := range files {
		paths[i] = filepath.Join(dir, name)
	}
	return CheckFiles(l.Fset, pkgPath, paths, imp)
}

// CheckFiles parses the given files and type-checks them as one package
// under pkgPath, resolving imports through imp. It is the single
// type-checking entry point shared by the loader and the go vet -vettool
// driver, so every Unit carries the same types.Info tables.
func CheckFiles(fset *token.FileSet, pkgPath string, filenames []string, imp types.Importer) (*Unit, error) {
	var parsed []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		parsed = append(parsed, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp, FakeImportC: true}
	pkg, err := conf.Check(pkgPath, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	return &Unit{Path: pkgPath, Fset: fset, Files: parsed, Pkg: pkg, Info: info}, nil
}

// checkFixture type-checks the fixture package in dir (all .go files,
// including _test.go-named ones — testdata is invisible to the go tool,
// so the suffix only marks files for test-file-scoped analyzers).
func (l *Loader) checkFixture(path, dir string) (*Unit, error) {
	if l.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through fixture %q", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: fixture %q has no .go files", path)
	}
	u, err := l.check(path, dir, files, l)
	if err != nil {
		return nil, err
	}
	l.fixtures[path] = u.Pkg
	return u, nil
}

// LoadFixture loads the fixture package at FixtureRoot/<path> and
// returns its Unit.
func (l *Loader) LoadFixture(path string) (*Unit, error) {
	if l.FixtureRoot == "" {
		return nil, fmt.Errorf("analysis: loader has no FixtureRoot")
	}
	dir := filepath.Join(l.FixtureRoot, filepath.FromSlash(path))
	return l.checkFixture(path, dir)
}
