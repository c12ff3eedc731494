package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-local imports are resolved from source under
// the module root, and standard-library imports go through go/importer's
// source importer so no compiled export data or network is needed.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string
	// IncludeTests also loads _test.go files (both in-package and
	// external test packages) for analysis.
	IncludeTests bool
	// Stats, when non-nil, accumulates per-rule wall time and the
	// package count across Check (simlint -stats).
	Stats *RunStats

	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle detection
}

// NewLoader builds a loader for the module rooted at moduleRoot (the
// directory containing go.mod).
func NewLoader(moduleRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", moduleRoot)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// FindModuleRoot walks upward from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// buildTagSatisfied evaluates one build tag against the default build
// configuration the analyzers model: the host GOOS/GOARCH, the gc
// toolchain, and any minimum-Go-version tag. Everything else — notably
// "race" — is off, matching what `go build` (no -race, no -tags)
// would select.
func buildTagSatisfied(tag string) bool {
	if tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" {
		return true
	}
	return strings.HasPrefix(tag, "go1.")
}

// fileIncluded reports whether the file's build constraint (if any)
// admits it under the default build configuration, so tag-gated shims
// (e.g. a `//go:build race` constant pair) are excluded exactly as the
// compiler would exclude them instead of colliding at type-check time.
func fileIncluded(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return true // let the parser report the real error
	}
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			if constraint.IsGoBuild(trimmed) {
				expr, err := constraint.Parse(trimmed)
				if err != nil {
					return true
				}
				return expr.Eval(buildTagSatisfied)
			}
			continue
		}
		break // package clause or code: constraints only appear above it
	}
	return true
}

// Import implements types.Importer: module-local paths load from
// source, everything else falls through to the standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load type-checks the module package with the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	return l.LoadDir(dir, path)
}

// LoadDir parses and type-checks the non-test Go files in dir under
// the given import path. Used directly by tests on testdata packages.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if !fileIncluded(filepath.Join(dir, name)) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// TestSuffix and ExtTestSuffix mark the synthetic import paths of test
// packages; inModule strips them so scope rules treat test files like
// the package they exercise.
const (
	TestSuffix    = " [test]"
	ExtTestSuffix = " [ext-test]"
)

// LoadTests type-checks the _test.go files belonging to the package:
// in-package test files are checked together with the package sources,
// external (pkg_test) files as their own package. The returned
// packages' Files hold only the test files, so analyzers do not
// re-report the base package.
func (l *Loader) LoadTests(path string) ([]*Package, error) {
	base, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(base.Dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var inPkg, ext []*ast.File
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, "_test.go") {
			continue
		}
		if !fileIncluded(filepath.Join(base.Dir, name)) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(base.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if f.Name.Name == base.Types.Name() {
			inPkg = append(inPkg, f)
		} else {
			ext = append(ext, f)
		}
	}
	var out []*Package
	check := func(path string, imp types.Importer, all, report []*ast.File) error {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Implicits:  map[ast.Node]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, l.Fset, all, info)
		if err != nil {
			return fmt.Errorf("analysis: type-checking %s: %w", path, err)
		}
		out = append(out, &Package{Path: path, Dir: base.Dir, Files: report, Types: tpkg, Info: info})
		return nil
	}
	imp := l
	if len(inPkg) > 0 {
		if err := check(path+TestSuffix, l, append(append([]*ast.File{}, base.Files...), inPkg...), inPkg); err != nil {
			return nil, err
		}
		imp = l.withVariant(base, out[0])
	}
	if len(ext) > 0 {
		if err := check(path+ExtTestSuffix, imp, ext, ext); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// withVariant returns a loader in which base's import path resolves to
// variant, the package type-checked together with its in-package test
// files — what `go test` links external tests against, so that they may
// use what an export_test.go declares. The cache keeps only what base
// itself imports; any other package the external tests import is
// type-checked afresh, against the variant if it imports base.
func (l *Loader) withVariant(base, variant *Package) *Loader {
	sub := *l
	sub.loading = map[string]bool{}
	sub.pkgs = map[string]*Package{base.Path: variant}
	var keep func(p *types.Package)
	keep = func(p *types.Package) {
		for _, dep := range p.Imports() {
			if pkg, ok := l.pkgs[dep.Path()]; ok && sub.pkgs[dep.Path()] == nil {
				sub.pkgs[dep.Path()] = pkg
				keep(dep)
			}
		}
	}
	keep(base.Types)
	return &sub
}

// Expand resolves command-line package patterns to import paths. It
// understands "./...", "dir/...", and plain (relative) directories,
// resolved against the current working directory.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	var paths []string
	seen := map[string]bool{}
	add := func(dir string) error {
		p, err := l.dirToPath(dir)
		if err != nil {
			return err
		}
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
		return nil
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := strings.TrimSuffix(rest, "/")
			if root == "" || root == "." {
				root = "."
			}
			dirs, err := packageDirs(root)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				if err := add(d); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := add(pat); err != nil {
			return nil, err
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// dirToPath maps a directory to its import path within the module.
func (l *Loader) dirToPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// packageDirs lists directories under root that contain non-test Go
// files, skipping testdata, vendor, and hidden directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// Check loads every pattern-matched package and runs the analyzers,
// returning all findings sorted by position with filenames relative to
// the module root.
func (l *Loader) Check(patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	paths, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs := []*Package{pkg}
		if l.IncludeTests {
			tests, err := l.LoadTests(path)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, tests...)
		}
		for _, pk := range pkgs {
			pass := NewPass(l.Fset, pk.Path, l.ModulePath, pk.Files, pk.Types, pk.Info)
			if l.Stats != nil {
				l.Stats.Packages++
			}
			fs := pass.RunTimed(analyzers, l.Stats)
			for i := range fs {
				if rel, err := filepath.Rel(l.ModuleRoot, fs[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
					fs[i].Pos.Filename = rel
				}
			}
			all = append(all, fs...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return all, nil
}
