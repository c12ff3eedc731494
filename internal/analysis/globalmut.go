package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// GlobalMut certifies instance isolation: two sim.Engine instances in
// one process must share no mutable package-level state, or concurrent
// (and even sequential) simulations contaminate each other and the
// determinism fingerprint stops meaning anything. The rule computes
// per-function write-effect summaries — which package-level variables
// each function writes, directly or through its same-package callees —
// bottom-up over the call graph, then reports:
//
//   - every write to a package-level variable outside func init and
//     package-level initializers (assignment, ++/--, delete on a global
//     map, taking a global's address, calling a pointer-receiver method
//     such as Lock on a global);
//   - reads of exported mutable package-level variables from library
//     code (configuration knobs that a second engine instance would
//     observe mid-flight); error-typed sentinels are exempt.
//
// Test packages are in scope for writes: a test that pokes a global
// poisons every other test sharing the process. Findings name the
// variable and, for summarized flows, the function chain.
var GlobalMut = &Analyzer{
	Name:      "globalmut",
	Doc:       "package-level mutable state shared across simulator instances",
	Scope:     ScopeWholePackage,
	AppliesTo: globalmutScope,
	Run:       runGlobalMut,
}

// globalmutScope: the module's library subtrees plus test packages.
// cmd/* binaries own their process and may keep flag-driven globals;
// internal/analysis is host tooling that never runs inside a
// simulation.
func globalmutScope(p *Pass) bool {
	if p.external() {
		return true
	}
	path := p.basePath()
	if path == p.ModulePath {
		return true
	}
	if p.inModule("cmd") || p.inModule("internal/analysis") {
		return false
	}
	return p.inModule("internal") || p.inModule("dcfampi")
}

// globalVarName renders a package-level variable for reports and
// summaries.
func globalVarName(v *types.Var) string {
	if v.Pkg() == nil {
		return v.Name()
	}
	return v.Pkg().Path() + "." + v.Name()
}

// isTestPass reports whether the pass covers a _test package.
func isTestPass(p *Pass) bool {
	return strings.HasSuffix(p.Path, TestSuffix) || strings.HasSuffix(p.Path, ExtTestSuffix)
}

func runGlobalMut(p *Pass) {
	we := writeEffects(p)
	test := isTestPass(p)
	g := p.CallGraph()

	// Direct writes: report each site, in every function (init exempt —
	// set-once wiring at package load is how sentinel state is built).
	for _, fn := range funcsInOrder(g) {
		fd := g.Funcs[fn]
		if isInitFunc(fd) {
			continue
		}
		gw := &globalWalk{p: p, test: test, inFunc: fn.Name()}
		gw.walk(fd.Body)
	}

	// Reads of exported mutable globals from library (non-test) code:
	// a second engine instance observes every value someone else left
	// there.
	if !test {
		// A variable counts as mutable when any function in this pass
		// writes it outside init.
		mutated := map[*types.Var]bool{}
		for _, fn := range funcsInOrder(g) {
			if isInitFunc(g.Funcs[fn]) {
				continue
			}
			for _, v := range we.directVars[fn] {
				mutated[v] = true
			}
		}
		for _, fn := range funcsInOrder(g) {
			fd := g.Funcs[fn]
			if isInitFunc(fd) {
				continue
			}
			reportMutableReads(p, fd, mutated)
		}
	}
}

// isInitFunc reports whether fd is a func init() declaration.
func isInitFunc(fd *ast.FuncDecl) bool {
	return fd.Recv == nil && fd.Name.Name == "init"
}

// globalWalk reports write sites to package-level variables in one
// function body.
type globalWalk struct {
	p      *Pass
	test   bool
	inFunc string
}

func (gw *globalWalk) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := gw.globalBase(lhs); v != nil {
					gw.report(lhs.Pos(), v, "write to")
				}
			}
		case *ast.IncDecStmt:
			if v := gw.globalBase(n.X); v != nil {
				gw.report(n.Pos(), v, "write to")
			}
		case *ast.CallExpr:
			if isBuiltinCall(gw.p, n, "delete") && len(n.Args) > 0 {
				if v := gw.globalBase(n.Args[0]); v != nil {
					gw.report(n.Pos(), v, "delete from")
				}
			}
			gw.checkMutatingMethod(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if v := gw.globalBase(n.X); v != nil {
					gw.report(n.Pos(), v, "address of")
				}
			}
		}
		return true
	})
}

// report emits the write finding, phrased for library or test code.
func (gw *globalWalk) report(pos token.Pos, v *types.Var, verb string) {
	name := globalVarName(v)
	if gw.test {
		gw.p.Reportf(pos, "test %s package-level %s in %s: parallel tests and engine instances observe it", verb, name, gw.inFunc)
		return
	}
	gw.p.Reportf(pos, "%s package-level %s in %s: state shared across engine instances; thread it through an instance struct instead",
		verb, name, gw.inFunc)
}

// globalBase unwraps selector/index/star chains and returns the
// package-level variable at the base, or nil. Both same-package
// globals and qualified module-local ones (pkg.Var = ...) resolve.
func (gw *globalWalk) globalBase(e ast.Expr) *types.Var {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			// pkg.Var or global.Field — if Sel itself is a package-level
			// var of a module-local package, that is the base.
			if v := gw.packageLevelVar(x.Sel); v != nil {
				return v
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return gw.packageLevelVar(x)
		default:
			return nil
		}
	}
}

// packageLevelVar resolves an identifier to a package-level variable
// in scope for this rule: same-package globals always, cross-package
// ones only when module-local (the standard library's globals are not
// ours to police).
func (gw *globalWalk) packageLevelVar(id *ast.Ident) *types.Var {
	obj := gw.p.objOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	pkg := v.Pkg()
	if pkg == nil {
		return nil
	}
	if pkg.Scope().Lookup(v.Name()) != v {
		return nil // not package-level
	}
	if pkg == gw.p.Types {
		return v
	}
	// Cross-package: only module-local packages (or anything when the
	// pass itself is external, i.e. the golden corpus).
	if gw.p.external() {
		return v
	}
	if gw.p.ModulePath != "" && (pkg.Path() == gw.p.ModulePath || strings.HasPrefix(pkg.Path(), gw.p.ModulePath+"/")) {
		return v
	}
	return nil
}

// checkMutatingMethod flags pointer-receiver method calls on a global
// (Lock on a package-level mutex, Inc on a shared counter): the
// receiver is written even though no assignment appears.
func (gw *globalWalk) checkMutatingMethod(call *ast.CallExpr) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := gw.p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if _, isPtr := sig.Recv().Type().(*types.Pointer); !isPtr {
		return
	}
	if v := gw.globalBase(sel.X); v != nil {
		name := globalVarName(v)
		if gw.test {
			gw.p.Reportf(call.Pos(), "test calls pointer-receiver %s on package-level %s in %s: parallel tests and engine instances observe it",
				sel.Sel.Name, name, gw.inFunc)
			return
		}
		gw.p.Reportf(call.Pos(), "pointer-receiver %s called on package-level %s in %s: state shared across engine instances; thread it through an instance struct instead",
			sel.Sel.Name, name, gw.inFunc)
	}
}

// reportMutableReads flags library reads of exported mutable globals.
func reportMutableReads(p *Pass, fd *ast.FuncDecl, mutated map[*types.Var]bool) {
	gw := &globalWalk{p: p, inFunc: fd.Name.Name}
	// Collect write bases first so a compound write (g.f = x) does not
	// double-report as a read.
	writePos := map[token.Pos]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markBaseIdents(lhs, writePos)
			}
		case *ast.IncDecStmt:
			markBaseIdents(n.X, writePos)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markBaseIdents(n.X, writePos)
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || writePos[id.Pos()] {
			return true
		}
		v := gw.packageLevelVar(id)
		if v == nil || !v.Exported() || !mutated[v] {
			return true
		}
		if isErrorType(v.Type()) {
			return true // error sentinels are write-once by convention
		}
		p.Reportf(id.Pos(), "read of mutable package-level %s in %s: a second engine instance observes whatever the last caller left there",
			globalVarName(v), fd.Name.Name)
		return true
	})
}

// markBaseIdents records the identifier positions along an lvalue's
// base chain.
func markBaseIdents(e ast.Expr, set map[token.Pos]bool) {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			set[x.Sel.Pos()] = true
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			set[x.Pos()] = true
			return
		default:
			return
		}
	}
}

// writeEffectsData carries both name-level and var-level direct write
// sets plus the transitive closure.
type writeEffectsData struct {
	direct     map[*types.Func][]string
	directVars map[*types.Func][]*types.Var
	trans      map[*types.Func][]string
}

// writeEffects computes each function's direct and transitive global
// write sets, bottom-up over the call graph. Recursive components
// union their members' effects (one round suffices: effects are sets
// of names, unioned, not flowed).
func writeEffects(p *Pass) *writeEffectsData {
	g := p.CallGraph()
	we := &writeEffectsData{
		direct:     map[*types.Func][]string{},
		directVars: map[*types.Func][]*types.Var{},
		trans:      map[*types.Func][]string{},
	}
	for _, fn := range funcsInOrder(g) {
		fd := g.Funcs[fn]
		seen := map[*types.Var]bool{}
		gw := &globalWalk{p: p}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var v *types.Var
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if b := gw.globalBase(lhs); b != nil && !seen[b] {
						seen[b] = true
						we.directVars[fn] = append(we.directVars[fn], b)
					}
				}
				return true
			case *ast.IncDecStmt:
				v = gw.globalBase(n.X)
			case *ast.CallExpr:
				if isBuiltinCall(p, n, "delete") && len(n.Args) > 0 {
					v = gw.globalBase(n.Args[0])
				}
			}
			if v != nil && !seen[v] {
				seen[v] = true
				we.directVars[fn] = append(we.directVars[fn], v)
			}
			return true
		})
		names := make([]string, 0, len(we.directVars[fn]))
		for _, v := range we.directVars[fn] {
			names = append(names, globalVarName(v))
		}
		sort.Strings(names)
		we.direct[fn] = names
	}
	// Transitive closure bottom-up: each SCC unions its members' direct
	// sets with all callee transitive sets, then every member shares
	// the component set.
	for _, scc := range g.SCCs {
		set := map[string]bool{}
		for _, fn := range scc {
			for _, n := range we.direct[fn] {
				set[n] = true
			}
			for _, callee := range g.Calls[fn] {
				for _, n := range we.trans[callee] {
					set[n] = true
				}
			}
		}
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, fn := range scc {
			we.trans[fn] = names
		}
	}
	return we
}

// WriteEffectDump renders the transitive write-effect summaries as
// deterministic text (sorted by qualified function name), one line per
// function with a non-empty effect set, e.g.:
//
//	repro/x.Reset: writes repro/x.cache, repro/x.hits
//
// Exposed for the summary-determinism tests.
func WriteEffectDump(p *Pass) string {
	we := writeEffects(p)
	var fns []*types.Func
	for fn, names := range we.trans {
		if len(names) > 0 {
			fns = append(fns, fn)
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
	var b strings.Builder
	for _, fn := range fns {
		fmt.Fprintf(&b, "%s: writes %s\n", fn.FullName(), strings.Join(we.trans[fn], ", "))
	}
	return b.String()
}

// isBuiltinCall reports whether the call invokes the named builtin.
func isBuiltinCall(p *Pass, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
