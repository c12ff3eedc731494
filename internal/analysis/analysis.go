// Package analysis implements simlint, the repository's determinism
// and simulation-safety static-analysis suite.
//
// The internal/sim engine promises bit-for-bit reproducible runs: one
// process executes at a time, ties are broken by insertion order, and
// all time is virtual. That promise is easy to break from outside the
// engine — a single time.Now, an unsorted map iteration feeding output,
// or a raw goroutine touching shared state silently turns exhaustive
// protocol tests into flaky ones. The analyzers in this package lint
// the whole tree for those hazards using only the standard library
// (go/ast, go/parser, go/types).
//
// Findings can be suppressed with a comment on the offending line (or
// on its own line directly above):
//
//	//simlint:ignore rule[,rule...] reason
//
// The reason is free text and should say why the construct is safe.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// A Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String formats the finding as "file:line: [rule] message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Analyzer scope labels: how much of the program one rule reasons
// about at a time. Reported by `simlint -list` so users know whether a
// finding can depend on code far from its position.
const (
	// ScopeIntra: the rule looks at one function body at a time.
	ScopeIntra = "intraprocedural"
	// ScopeWholePackage: the rule reasons about package-level
	// declarations (an enum, its transition table) and every function
	// that touches them.
	ScopeWholePackage = "whole-package"
)

// An Analyzer checks one determinism invariant over a type-checked
// package.
type Analyzer struct {
	// Name is the rule identifier used in reports and in
	// //simlint:ignore comments.
	Name string
	// Doc is a one-line description of the invariant.
	Doc string
	// Scope is ScopeIntra or ScopeWholePackage.
	Scope string
	// AppliesTo reports whether the analyzer runs on the given
	// package. Nil means it runs everywhere.
	AppliesTo func(p *Pass) bool
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// All returns every analyzer in the suite, in report order.
func All() []*Analyzer {
	return []*Analyzer{Nondet, MapOrder, RawGo, ErrCheck, FSMCheck}
}

// ByName selects analyzers from a comma-separated list, or All() when
// the list is empty. Each entry is a rule name to include, `-name` to
// exclude, or the keyword `all`; entries apply left to right, and a
// list that opens with an exclusion starts from the full set, so
// `-rawgo` means "everything except rawgo". The selection is
// returned in All() order and must not end up empty.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	selected := map[string]bool{}
	for i, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "all" {
			for _, a := range All() {
				selected[a.Name] = true
			}
			continue
		}
		name, exclude := strings.CutPrefix(entry, "-")
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("unknown rule %q", name)
		}
		if exclude && i == 0 {
			for _, a := range All() {
				selected[a.Name] = true
			}
		}
		selected[name] = !exclude
	}
	var out []*Analyzer
	for _, a := range All() {
		if selected[a.Name] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("rule list %q selects no analyzers", list)
	}
	return out, nil
}

// Pass carries one type-checked package through the analyzers.
type Pass struct {
	Fset       *token.FileSet
	Path       string // package import path
	ModulePath string // enclosing module path ("" for loose dirs)
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	rule     string // rule currently running, for suppression checks
	findings []Finding
	// suppress maps filename -> line -> rules ignored on that line.
	suppress map[string]map[int][]string
}

// NewPass assembles a pass and indexes its suppression comments.
func NewPass(fset *token.FileSet, path, modulePath string, files []*ast.File, tpkg *types.Package, info *types.Info) *Pass {
	p := &Pass{
		Fset:       fset,
		Path:       path,
		ModulePath: modulePath,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		suppress:   map[string]map[int][]string{},
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				p.indexSuppression(c)
			}
		}
	}
	return p
}

const ignorePrefix = "//simlint:ignore"

// indexSuppression records a //simlint:ignore comment. The suppression
// covers the comment's own line (trailing-comment form) and the line
// directly below it (own-line form).
func (p *Pass) indexSuppression(c *ast.Comment) {
	if !strings.HasPrefix(c.Text, ignorePrefix) {
		return
	}
	fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
	if len(fields) == 0 {
		return // no rule named; ignore the malformed directive
	}
	rules := strings.Split(fields[0], ",")
	pos := p.Fset.Position(c.Pos())
	byLine := p.suppress[pos.Filename]
	if byLine == nil {
		byLine = map[int][]string{}
		p.suppress[pos.Filename] = byLine
	}
	byLine[pos.Line] = append(byLine[pos.Line], rules...)
	byLine[pos.Line+1] = append(byLine[pos.Line+1], rules...)
}

// suppressed reports whether rule is ignored at position.
func (p *Pass) suppressed(pos token.Position, rule string) bool {
	for _, r := range p.suppress[pos.Filename][pos.Line] {
		if r == rule || r == "all" {
			return true
		}
	}
	return false
}

// Reportf records a finding for the running rule unless the position
// carries a matching suppression comment.
func (p *Pass) Reportf(at token.Pos, format string, args ...any) {
	pos := p.Fset.Position(at)
	if p.suppressed(pos, p.rule) {
		return
	}
	p.findings = append(p.findings, Finding{
		Pos:     pos,
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// RunStats aggregates analysis cost when the caller asks for it
// (simlint -stats): wall time per rule, summed over packages.
type RunStats struct {
	Packages int
	RuleTime map[string]time.Duration
}

// Run executes the analyzers that apply to this package and returns
// the findings sorted by position.
func (p *Pass) Run(analyzers []*Analyzer) []Finding {
	return p.RunTimed(analyzers, nil)
}

// RunTimed is Run with per-rule wall-time attribution added to stats
// (which may be nil).
func (p *Pass) RunTimed(analyzers []*Analyzer, stats *RunStats) []Finding {
	for _, a := range analyzers {
		if a.AppliesTo != nil && !a.AppliesTo(p) {
			continue
		}
		p.rule = a.Name
		if stats == nil {
			a.Run(p)
			continue
		}
		t0 := time.Now()
		a.Run(p)
		stats.RuleTime[a.Name] += time.Since(t0)
	}
	sort.Slice(p.findings, func(i, j int) bool {
		a, b := p.findings[i], p.findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return p.findings
}

// basePath is the pass's import path with any test-package suffix
// stripped, so scope rules treat test files like the package they
// exercise.
func (p *Pass) basePath() string {
	path := strings.TrimSuffix(p.Path, TestSuffix)
	return strings.TrimSuffix(path, ExtTestSuffix)
}

// inModule reports whether the pass's package lives under the named
// module subtree (path == sub or path == module/sub...).
func (p *Pass) inModule(sub string) bool {
	if p.ModulePath == "" {
		return false
	}
	full := p.ModulePath + "/" + sub
	path := p.basePath()
	return path == full || strings.HasPrefix(path, full+"/")
}

// external reports whether the package is outside the enclosing module
// — true for the synthetic packages the golden tests load, which all
// analyzers treat as in scope.
func (p *Pass) external() bool {
	path := p.basePath()
	return p.ModulePath == "" || (path != p.ModulePath && !strings.HasPrefix(path, p.ModulePath+"/"))
}

// pkgCallee resolves a call of the form pkg.Fn(...) to the imported
// package path and function name. It returns ok=false for method
// calls, locals, and builtins.
func (p *Pass) pkgCallee(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := p.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// unparen strips any parentheses around e.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// objOf returns the object an identifier resolves to, or nil.
func (p *Pass) objOf(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// declaredOutside reports whether e is an identifier whose declaration
// lies outside node — i.e. the loop or function literal writes state
// owned by an enclosing scope.
func (p *Pass) declaredOutside(e ast.Expr, node ast.Node) bool {
	obj := p.objOf(e)
	if obj == nil || obj.Pos() == token.NoPos {
		return false
	}
	return obj.Pos() < node.Pos() || obj.Pos() > node.End()
}

// isMapType reports whether the expression's type is a map.
func (p *Pass) isMapType(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isString reports whether the expression's type is a string.
func (p *Pass) isString(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, isBasic := tv.Type.Underlying().(*types.Basic)
	return isBasic && b.Info()&types.IsString != 0
}
