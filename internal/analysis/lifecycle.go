package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the shared engine behind the four flow-sensitive
// lifecycle rules (mrleak, mrpin, offload, reqwait). Each rule is a
// lifecycleSpec — a small state machine over the protocol's verbs —
// and the engine runs it as a forward may-dataflow problem over every
// function's CFG:
//
//   - a create verb (RegMR, MRCache.Get, RegOffloadMR, Isend/Irecv)
//     starts tracking its call site with the Live obligation;
//   - a release verb (DeregMR, Release, DeregOffloadMR, Wait/WaitAll)
//     discharges the obligation and arms use-after-release detection;
//   - an advance verb (SyncOffloadMR) moves the offload protocol from
//     registered to synced, unlocking RDMA posts;
//   - escaping the function (stored into a field/slice/map/global,
//     passed to a non-verb call, captured by a closure, returned, sent
//     on a channel) transfers ownership and ends tracking.
//
// The verbs are declared, never inferred: builtinContracts plus
// //simlint:contract directives (contracts.go) are the only way an
// obligation crosses a function boundary. A helper that acquires,
// releases, borrows or passes a resource through says so in one
// comment line; a call to anything else escapes its tracked arguments.
//
// A resource still Live at a return (or at the implicit fall-off-the-
// end exit) leaks on that path and is reported at its creation site.
// Error results assigned alongside a creation are paired with it, so
// the `if err != nil { return err }` guard does not count as a leak:
// on the err-non-nil edge the resource is known nil and the obligation
// is dropped. Paths ending in panic/os.Exit/log.Fatal never reach the
// exit and carry no obligations.

// Lifecycle states. Live and Unsynced mark pending obligations;
// Released arms use-after-release checks; Deferred means a `defer
// <release>(x)` registered on this path will discharge the obligation
// when the exit block's DeferRun executes; Escaped means ownership left
// the function's view (stored, captured, passed to an owning callee) —
// the site stays in the fact map as a tombstone, so a join with a path
// that still owns it does not revive use/double-release checks, but
// carries no obligation.
const (
	stateLive State = 1 << iota
	stateUnsynced
	stateReleased
	stateDeferred
	stateEscaped
)

// actionable reports whether checks still apply to a site: once it
// escapes, the function no longer owns the protocol obligations.
func actionable(st State) bool {
	return st&stateEscaped == 0
}

// lifecycleSpec describes one resource protocol.
type lifecycleSpec struct {
	rule string
	// what names the resource in findings ("memory region", ...).
	what string
	// resultType is the named type of the created value ("MR",
	// "OffloadMR", "Request"); creation calls must return a pointer to
	// it as their first result.
	resultType string
	// createNames / createRecv select the creating calls; empty
	// createRecv accepts any receiver.
	createNames map[string]bool
	createRecv  string
	// releaseNames / releaseRecv select the releasing calls.
	releaseNames map[string]bool
	releaseRecv  string
	// advanceNames select the protocol-advancing calls (offload sync).
	advanceNames map[string]bool
	// testNames select calls that release only on a true result (Test).
	testNames map[string]bool
	// trackUnsynced arms the ordered-use check: creation starts in
	// Live|Unsynced and uses matched by postPrefix/orderFields while
	// Unsynced are wrong-order findings.
	trackUnsynced bool
	postPrefix    string
	orderFields   map[string]bool
	// checkUse arms use-after-release reporting.
	checkUse bool

	// Finding messages. leakMsg and discardMsg receive the creating
	// call's name; the others are fixed.
	leakMsg    string
	discardMsg string
	useMsg     string
	doubleMsg  string
	orderMsg   string
}

// lifecycleSpecs returns the four protocol-rule specs in report order.
func lifecycleSpecs() []*lifecycleSpec {
	return []*lifecycleSpec{mrleakSpec, mrpinSpec, offloadSpec, reqwaitSpec}
}

// notTestPackage keeps the lifecycle rules off _test.go passes: tests
// tear whole simulated machines down at once and intentionally
// exercise double-free and wrong-order error paths.
func notTestPackage(p *Pass) bool {
	return !strings.HasSuffix(p.Path, TestSuffix) && !strings.HasSuffix(p.Path, ExtTestSuffix)
}

// runLifecycle analyzes every function declaration and function
// literal in the pass against one protocol spec.
func runLifecycle(p *Pass, spec *lifecycleSpec) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			// Prescreen: run only where a creation verb is named.
			if body != nil && mentionsCreate(p, spec, body) {
				lf := &lifecycleFlow{p: p, spec: spec, reported: map[reportKey]bool{}}
				Solve(NewCFG(body), lf)
			}
			return true
		})
	}
}

// mentionsCreate cheaply pre-screens a body for the spec's creation
// verbs — builtin names plus any names declared acquire by a
// //simlint:contract directive in this pass — so the CFG + solver only
// run where they can matter. Nested function literals are skipped:
// they are analyzed on their own.
func mentionsCreate(p *Pass, spec *lifecycleSpec, body *ast.BlockStmt) bool {
	acquirers := p.contractAcquireNames(spec.rule)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && (spec.createNames[id.Name] || acquirers[id.Name]) {
			found = true
			return false
		}
		return true
	})
	return found
}

// reportKey dedups findings across the converged-facts replay: a leak
// is reported once per creation site even when several returns leak it.
type reportKey struct {
	pos  token.Pos
	kind byte
}

// lifecycleFlow adapts one spec to the dataflow solver for one
// function body.
type lifecycleFlow struct {
	p        *Pass
	spec     *lifecycleSpec
	reported map[reportKey]bool
}

func (lf *lifecycleFlow) reportOnce(pos token.Pos, kind byte, format string, args ...any) {
	k := reportKey{pos, kind}
	if lf.reported[k] {
		return
	}
	lf.reported[k] = true
	lf.p.Reportf(pos, format, args...)
}

// classify resolves what a call does under this spec: the builtin
// verb tables first (method calls by name and receiver type), then any
// //simlint:contract directive on the statically resolved callee.
func (lf *lifecycleFlow) classify(call *ast.CallExpr) verb {
	spec := lf.spec
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		name, recv := sel.Sel.Name, recvTypeName(lf.p, call)
		switch {
		case spec.createNames[name]:
			if (spec.createRecv == "" || recv == spec.createRecv) &&
				callResultTypeName(lf.p, call, 0) == spec.resultType {
				return verbAcquire
			}
		case spec.releaseNames[name]:
			if spec.releaseRecv == "" || recv == spec.releaseRecv {
				return verbRelease
			}
		case spec.advanceNames[name]:
			return verbAdvance
		case spec.testNames[name]:
			return verbTest
		}
	}
	role := lf.p.contractOf(lf.p.calledFunc(call), spec.rule)
	if role == verbAcquire && callResultTypeName(lf.p, call, 0) != spec.resultType {
		return verbNone
	}
	return role
}

// recvTypeName returns the named type of a method call's receiver, or
// "" for non-method calls, package-qualified calls, and unnamed
// receivers.
func recvTypeName(p *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := p.Info.Uses[id].(*types.PkgName); isPkg {
			return ""
		}
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return ""
	}
	return namedTypeName(tv.Type)
}

// callResultTypeName returns the named type of the call's i-th result
// (pointers dereferenced), or "".
func callResultTypeName(p *Pass, call *ast.CallExpr, i int) string {
	sig := p.calleeSignature(call)
	if sig == nil || sig.Results().Len() <= i {
		return ""
	}
	return namedTypeName(sig.Results().At(i).Type())
}

// namedTypeName unwraps pointers and returns the named type's name.
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// callName returns the called name of a creating call site — the
// selector for method/package calls, the identifier for local helper
// constructors.
func callName(site ast.Node) string {
	if call, ok := site.(*ast.CallExpr); ok {
		switch fun := unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			return fun.Sel.Name
		case *ast.Ident:
			return fun.Name
		}
	}
	return "create"
}

// initState is the state a freshly created resource starts in.
func (lf *lifecycleFlow) initState() State {
	if lf.spec.trackUnsynced {
		return stateLive | stateUnsynced
	}
	return stateLive
}

// ---- FlowProblem implementation ----

func (lf *lifecycleFlow) Transfer(n ast.Node, f *Facts, report bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		lf.assign(n.Lhs, n.Rhs, f, report)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				vs, ok := sp.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					lf.assign(lhs, vs.Values, f, report)
					continue
				}
				// `var x T` zeroes x: drop bindings the loop back-edge
				// may have carried in from a prior iteration.
				for _, id := range vs.Names {
					if obj := lf.p.objOf(id); obj != nil {
						delete(f.Bind, obj)
					}
				}
			}
		}
	case *ast.ExprStmt:
		lf.scanExpr(n.X, f, report)
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			lf.scanExpr(e, f, report)
			if call, ok := unparen(e).(*ast.CallExpr); ok {
				// Returning a protocol verb's own result (`return
				// v.SyncOffloadMR(p, omr, ...)`) hands the caller an error
				// value, not the resource: the obligation stays here. Only
				// `return pass(mr)` carries its argument out with the result.
				if v := lf.classify(call); v != verbNone && v != verbPass {
					continue
				}
			}
			lf.escapeIdents(e, f)
		}
	case *ImplicitReturn:
		// Leak checking happens at the exit block's ExitCheck, after
		// deferred cleanups have run.
	case *DeferRun:
		lf.deferRun(n, f)
	case *ExitCheck:
		if report {
			lf.leakCheck(f)
		}
	case *ast.DeferStmt:
		lf.deferStmt(n, f, report)
	case *ast.GoStmt:
		lf.scanExpr(n.Call, f, report)
		lf.escapeIdents(n.Call, f)
	case *ast.SendStmt:
		lf.scanExpr(n.Chan, f, report)
		lf.scanExpr(n.Value, f, report)
		lf.escapeIdents(n.Value, f)
	case *ast.IncDecStmt:
		lf.scanExpr(n.X, f, report)
	case *ast.RangeStmt:
		lf.rangeHead(n, f, report)
	case *ast.LabeledStmt, *ast.EmptyStmt:
		// no effect
	default:
		if e, ok := n.(ast.Expr); ok {
			lf.scanExpr(e, f, report) // condition leaves, switch tags, case exprs
		}
	}
}

// rangeHead handles the loop-head node of a range statement: ranging
// over a tracked slice aliases the value variable to its sites.
func (lf *lifecycleFlow) rangeHead(n *ast.RangeStmt, f *Facts, report bool) {
	lf.scanExpr(n.X, f, report)
	xid, ok := unparen(n.X).(*ast.Ident)
	if !ok {
		return
	}
	xobj := lf.p.objOf(xid)
	if xobj == nil || len(f.Bind[xobj]) == 0 || n.Value == nil {
		return
	}
	if vid, ok := n.Value.(*ast.Ident); ok && vid.Name != "_" {
		if vobj := lf.p.objOf(vid); vobj != nil {
			f.Bind[vobj] = append([]ast.Node(nil), f.Bind[xobj]...)
		}
	}
}

// assign handles assignment-shaped nodes: creations bind, appends
// transfer, bare copies alias, writes into non-local storage escape,
// and overwrites kill stale bindings and error pairings.
func (lf *lifecycleFlow) assign(lhs, rhs []ast.Expr, f *Facts, report bool) {
	// Creation: lhs... := create(...); wrapper: lhs := pass(x).
	if len(rhs) == 1 {
		if call, ok := unparen(rhs[0]).(*ast.CallExpr); ok {
			if v := lf.classify(call); v == verbAcquire || v == verbPass {
				lf.scanExpr(call, f, report) // reads its arguments, binds nothing
				if v == verbAcquire {
					lf.bindCreate(lhs, call, f, report)
				} else {
					lf.bindPass(lhs, call, f)
				}
				return
			}
		}
	}
	bound := make([]bool, len(lhs))
	if len(lhs) == len(rhs) {
		for i := range lhs {
			lid, lok := lhs[i].(*ast.Ident)
			if !lok || lid.Name == "_" {
				continue
			}
			lobj := lf.p.objOf(lid)
			if lobj == nil {
				continue
			}
			switch r := unparen(rhs[i]).(type) {
			case *ast.Ident:
				// Alias copy: x := mr.
				if robj := lf.p.objOf(r); robj != nil {
					if sites := f.Bind[robj]; len(sites) > 0 {
						f.Bind[lobj] = append([]ast.Node(nil), sites...)
						bound[i] = true
					}
				}
			case *ast.CallExpr:
				// Transfer: reqs = append(reqs, q, ...). The elements'
				// obligations move from their creation sites to the append
				// itself, so the slice's holdings outlive the next trip
				// round a loop, where the same creation site starts over.
				if lf.isBuiltinAppend(r) {
					var sites []ast.Node
					for j, a := range r.Args {
						if aid, ok := unparen(a).(*ast.Ident); ok {
							if aobj := lf.p.objOf(aid); aobj != nil {
								if j > 0 && lf.moveTo(r, f.Bind[aobj], f) {
									sites, _ = unionSites(sites, []ast.Node{r})
								} else {
									sites, _ = unionSites(sites, f.Bind[aobj])
								}
							}
						} else {
							lf.scanExpr(a, f, report)
							lf.escapeIdents(a, f)
						}
					}
					if len(sites) > 0 {
						f.Bind[lobj] = sites
						bound[i] = true
					}
				}
			}
		}
	}
	for i, r := range rhs {
		if i < len(bound) && bound[i] {
			continue // alias/append already handled; don't escape
		}
		lf.scanExpr(r, f, report)
		// A tracked value assigned anywhere but a plain local variable
		// (field, element, dereference) escapes the function's view.
		target := lhs[0]
		if len(lhs) == len(rhs) {
			target = lhs[i]
		}
		if _, isIdent := target.(*ast.Ident); !isIdent {
			lf.escapeIdents(r, f)
		}
	}
	// Overwrites: a plain local LHS that did not take a tracked value
	// loses any stale binding, and reassigning an error variable
	// invalidates pairings that referred to its previous value.
	for i, l := range lhs {
		if i < len(bound) && bound[i] {
			continue
		}
		if lid, ok := l.(*ast.Ident); ok && lid.Name != "_" {
			if lobj := lf.p.objOf(lid); lobj != nil {
				delete(f.Bind, lobj)
			}
		}
	}
	lf.killPairs(lhs, f)
}

// moveTo moves the obligations of the still-owned sites among from onto
// the site to, leaving the originals escaped; false if none was owned.
func (lf *lifecycleFlow) moveTo(to ast.Node, from []ast.Node, f *Facts) bool {
	moved := false
	for _, site := range from {
		if st, tracked := f.Res[site]; tracked && actionable(st) && site != to {
			f.Res[to] |= st
			f.Res[site] = stateEscaped
			moved = true
		}
	}
	return moved
}

// bindCreate starts tracking a creation call assigned to locals.
func (lf *lifecycleFlow) bindCreate(lhs []ast.Expr, call *ast.CallExpr, f *Facts, report bool) {
	lf.killPairs(lhs, f)
	switch target := lhs[0].(type) {
	case *ast.Ident:
		if target.Name == "_" {
			if report {
				lf.reportOnce(call.Pos(), 'd', lf.spec.discardMsg, callName(call))
			}
			return
		}
		obj := lf.p.objOf(target)
		if obj == nil {
			return
		}
		f.Res[call] = lf.initState()
		f.Bind[obj] = []ast.Node{call}
		// Pair the error result assigned in the same statement.
		if len(lhs) >= 2 {
			if eid, ok := lhs[len(lhs)-1].(*ast.Ident); ok && eid.Name != "_" && eid != target {
				if eobj := lf.p.objOf(eid); eobj != nil {
					f.Pair[call] = eobj
				}
			}
		}
	default:
		// Stored straight into a field/element: ownership escapes.
		lf.scanExpr(lhs[0], f, report)
	}
}

// killPairs invalidates error pairings through every plain local the
// assignment overwrites: refinement on the old error value no longer
// says anything about the creations paired with it.
func (lf *lifecycleFlow) killPairs(lhs []ast.Expr, f *Facts) {
	for _, l := range lhs {
		lid, ok := l.(*ast.Ident)
		if !ok || lid.Name == "_" {
			continue
		}
		if lobj := lf.p.objOf(lid); lobj != nil {
			for site, eobj := range f.Pair {
				if eobj == lobj {
					f.Pair[site] = nil // tombstone: refinement no longer valid
				}
			}
		}
	}
}

// bindPass handles `x := pass(mr)`: the first target aliases whatever
// the bound arguments name (releasing x releases mr's site); stored
// anywhere but a plain local, the resource escapes with it.
func (lf *lifecycleFlow) bindPass(lhs []ast.Expr, call *ast.CallExpr, f *Facts) {
	lf.killPairs(lhs, f)
	var sites []ast.Node
	for _, a := range call.Args {
		if aobj := lf.p.objOf(unparen(a)); aobj != nil {
			sites, _ = unionSites(sites, f.Bind[aobj])
		}
	}
	for i, l := range lhs {
		lid, ok := l.(*ast.Ident)
		if !ok {
			if i == 0 {
				lf.escapeIdents(call, f)
			}
			continue
		}
		if lobj := lf.p.objOf(lid); lobj != nil && lid.Name != "_" {
			if i == 0 && len(sites) > 0 {
				f.Bind[lobj] = sites
			} else {
				delete(f.Bind, lobj)
			}
		}
	}
}

// deferStmt handles the registration of a deferred call: a deferred
// release arms the Deferred state on this path (the exit block's
// DeferRun completes the transition to Released); any other deferred
// call that mentions a tracked value is treated as an owning cleanup
// (escape) unless its contract says it only borrows.
func (lf *lifecycleFlow) deferStmt(n *ast.DeferStmt, f *Facts, report bool) {
	switch lf.classify(n.Call) {
	case verbRelease:
		lf.releaseArgs(n.Call, f, report, stateDeferred)
	case verbAdvance:
		lf.advanceArgs(n.Call, f, report)
	case verbBorrow, verbPass:
		lf.scanExpr(n.Call, f, report)
	default:
		lf.scanExpr(n.Call, f, report)
		lf.escapeIdents(n.Call, f)
	}
}

// deferRun executes one deferred call at an exit (or on a panic path):
// sites armed Deferred by the registering statement complete their
// release. Paths that never reached the defer statement carry no
// Deferred bit and are unaffected — the gate is the dataflow fact, not
// the CFG node.
func (lf *lifecycleFlow) deferRun(n *DeferRun, f *Facts) {
	call := n.Defer.Call
	if lf.classify(call) != verbRelease {
		return
	}
	for _, a := range call.Args {
		id, ok := unparen(a).(*ast.Ident)
		if !ok {
			continue
		}
		obj := lf.p.objOf(id)
		if obj == nil {
			continue
		}
		for _, site := range f.Bind[obj] {
			if st, tracked := f.Res[site]; tracked && st&stateDeferred != 0 {
				f.Res[site] = st&^stateDeferred | stateReleased
			}
		}
	}
}

// scanExpr walks an expression for protocol verbs, uses of tracked
// values (use-after-release, wrong-order posts), and escapes.
func (lf *lifecycleFlow) scanExpr(e ast.Expr, f *Facts, report bool) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.Ident:
		lf.useIdent(e, f, report)
	case *ast.SelectorExpr:
		if id, ok := unparen(e.X).(*ast.Ident); ok {
			lf.checkOrderField(id, e.Sel.Name, f, report)
		}
		lf.scanExpr(e.X, f, report)
	case *ast.CallExpr:
		lf.call(e, f, report)
	case *ast.FuncLit:
		lf.escapeFuncLit(e, f)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			lf.scanExpr(el, f, report)
			lf.escapeIdents(el, f)
		}
	case *ast.KeyValueExpr:
		lf.scanExpr(e.Key, f, report)
		lf.scanExpr(e.Value, f, report)
	case *ast.ParenExpr:
		lf.scanExpr(e.X, f, report)
	case *ast.UnaryExpr:
		lf.scanExpr(e.X, f, report)
		if e.Op == token.AND {
			lf.escapeIdents(e.X, f) // address taken: aliases unknown
		}
	case *ast.StarExpr:
		lf.scanExpr(e.X, f, report)
	case *ast.BinaryExpr:
		lf.scanExpr(e.X, f, report)
		lf.scanExpr(e.Y, f, report)
	case *ast.IndexExpr:
		lf.scanExpr(e.X, f, report)
		lf.scanExpr(e.Index, f, report)
	case *ast.SliceExpr:
		lf.scanExpr(e.X, f, report)
		lf.scanExpr(e.Low, f, report)
		lf.scanExpr(e.High, f, report)
		lf.scanExpr(e.Max, f, report)
	case *ast.TypeAssertExpr:
		lf.scanExpr(e.X, f, report)
	}
}

// call dispatches one call expression.
func (lf *lifecycleFlow) call(call *ast.CallExpr, f *Facts, report bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		lf.scanExpr(sel.X, f, report)
	} else if _, ok := call.Fun.(*ast.Ident); !ok {
		lf.scanExpr(call.Fun, f, report)
	}
	switch lf.classify(call) {
	case verbAcquire, verbBorrow, verbPass:
		// The arguments are only read. A creation's result not assigned
		// to a local (checked in assign) flows elsewhere immediately —
		// untracked by design; borrow and pass leave every obligation
		// where it is (assign aliases a pass's result).
		for _, a := range call.Args {
			lf.scanExpr(a, f, report)
		}
	case verbAdvance:
		lf.advanceArgs(call, f, report)
	case verbRelease:
		lf.releaseArgs(call, f, report, stateReleased)
	case verbTest:
		// The call may complete the resource, so the Live obligation is
		// weakly discharged (no Released bit, no double-release report);
		// when the call is a branch condition, Refine upgrades the true
		// edge to a full release.
		for _, a := range call.Args {
			id, ok := unparen(a).(*ast.Ident)
			if !ok {
				lf.scanExpr(a, f, report)
				continue
			}
			obj := lf.p.objOf(id)
			if obj == nil {
				continue
			}
			for _, site := range f.Bind[obj] {
				if st, tracked := f.Res[site]; tracked && actionable(st) {
					f.Res[site] = st &^ (stateLive | stateUnsynced)
				}
			}
		}
	default:
		if lf.isBuiltinAppend(call) {
			// Binding transfer happens at the assignment level; a bare
			// append cannot escape the elements it copies.
			for _, a := range call.Args {
				if !lf.isBoundIdent(a, f) {
					lf.scanExpr(a, f, report)
				}
			}
			return
		}
		for _, a := range call.Args {
			lf.scanExpr(a, f, report)
		}
		lf.checkPostCall(call, f, report)
		if lf.isPostCall(call) {
			// An RDMA post reads the region but does not take
			// ownership: the poster still owes the dereg.
			return
		}
		// No declared contract: ownership of every tracked argument
		// goes with the call.
		for _, a := range call.Args {
			lf.escapeIdents(a, f)
		}
	}
}

// isPostCall reports whether the call is an RDMA posting verb under a
// spec that orders posts (offload).
func (lf *lifecycleFlow) isPostCall(call *ast.CallExpr) bool {
	if lf.spec.postPrefix == "" {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && strings.HasPrefix(sel.Sel.Name, lf.spec.postPrefix)
}

// isBoundIdent reports whether e is a bare identifier currently bound
// to tracked sites.
func (lf *lifecycleFlow) isBoundIdent(e ast.Expr, f *Facts) bool {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := lf.p.objOf(id)
	return obj != nil && len(f.Bind[obj]) > 0
}

// isBuiltinAppend reports whether the call is the predeclared append.
func (lf *lifecycleFlow) isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := lf.p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// useIdent flags a read of a tracked value that may already be
// released.
func (lf *lifecycleFlow) useIdent(id *ast.Ident, f *Facts, report bool) {
	if !report || !lf.spec.checkUse {
		return
	}
	obj := lf.p.objOf(id)
	if obj == nil {
		return
	}
	for _, site := range f.Bind[obj] {
		if st := f.Res[site]; actionable(st) && mustReleased(st) {
			lf.reportOnce(id.Pos(), 'u', "%s", lf.spec.useMsg)
			return
		}
	}
}

// mustReleased reports whether a may-state proves the resource is
// released on every path reaching this point: the Released bit is set
// and no path still holds it Live. Requiring the Live bit clear keeps
// loop back-edges quiet — a site released last iteration and
// re-created this one joins to Live|Released, which is fine.
func mustReleased(st State) bool {
	return st&stateReleased != 0 && st&stateLive == 0
}

// checkOrderField flags access to posting fields of an unsynced
// offload MR (omr.HostBuf / omr.HostMR before SyncOffloadMR).
func (lf *lifecycleFlow) checkOrderField(id *ast.Ident, field string, f *Facts, report bool) {
	if !report || !lf.spec.trackUnsynced || !lf.spec.orderFields[field] {
		return
	}
	obj := lf.p.objOf(id)
	if obj == nil {
		return
	}
	for _, site := range f.Bind[obj] {
		if f.Res[site]&stateUnsynced != 0 {
			lf.reportOnce(id.Pos(), 'o', "%s", lf.spec.orderMsg)
			return
		}
	}
}

// checkPostCall flags a Post* call carrying an unsynced offload MR.
func (lf *lifecycleFlow) checkPostCall(call *ast.CallExpr, f *Facts, report bool) {
	if !report || !lf.spec.trackUnsynced || lf.spec.postPrefix == "" {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, lf.spec.postPrefix) {
		return
	}
	for _, a := range call.Args {
		ast.Inspect(a, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := lf.p.objOf(id)
			if obj == nil {
				return true
			}
			for _, site := range f.Bind[obj] {
				if f.Res[site]&stateUnsynced != 0 {
					lf.reportOnce(id.Pos(), 'o', "%s", lf.spec.orderMsg)
					return false
				}
			}
			return true
		})
	}
}

// releaseArgs discharges every tracked argument of a release call; to
// is stateReleased for direct releases, stateDeferred for `defer`.
func (lf *lifecycleFlow) releaseArgs(call *ast.CallExpr, f *Facts, report bool, to State) {
	for _, a := range call.Args {
		id, ok := unparen(a).(*ast.Ident)
		if !ok {
			lf.scanExpr(a, f, report)
			continue
		}
		obj := lf.p.objOf(id)
		if obj == nil {
			continue
		}
		for _, site := range f.Bind[obj] {
			st, tracked := f.Res[site]
			if !tracked || !actionable(st) {
				continue
			}
			if report && (mustReleased(st) || st&stateDeferred != 0) {
				lf.reportOnce(call.Pos(), '2', "%s", lf.spec.doubleMsg)
			}
			f.Res[site] = st&^(stateLive|stateUnsynced) | to
		}
	}
}

// advanceArgs moves tracked arguments of an advance call (offload
// sync) out of the Unsynced state; syncing a released region is a
// use-after-release.
func (lf *lifecycleFlow) advanceArgs(call *ast.CallExpr, f *Facts, report bool) {
	for _, a := range call.Args {
		id, ok := unparen(a).(*ast.Ident)
		if !ok {
			lf.scanExpr(a, f, report)
			continue
		}
		obj := lf.p.objOf(id)
		if obj == nil {
			continue
		}
		for _, site := range f.Bind[obj] {
			st, tracked := f.Res[site]
			if !tracked || !actionable(st) {
				continue
			}
			if report && lf.spec.checkUse && mustReleased(st) {
				lf.reportOnce(call.Pos(), 'u', "%s", lf.spec.useMsg)
			}
			f.Res[site] = st &^ stateUnsynced
		}
	}
}

// escapeIdents transfers ownership out of the function's view for
// every bound identifier whose handle leaves through e. A field
// projection (mr.LKey, omr.Size) hands out a copy of one field, not
// the tracked handle, so selector bases stay tracked — the obligation
// to release remains here. Escaped sites stay in the fact map as
// tombstones (Escaped bit, obligations cleared).
func (lf *lifecycleFlow) escapeIdents(e ast.Node, f *Facts) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if _, isID := unparen(sel.X).(*ast.Ident); isID {
				return false // x.Field / x.Method(): projection, not the handle
			}
			return true
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		lf.escapeObj(lf.p.objOf(id), f)
		return true
	})
}

// escapeObj marks every site bound to obj as escaped.
func (lf *lifecycleFlow) escapeObj(obj types.Object, f *Facts) {
	if obj == nil {
		return
	}
	for _, site := range f.Bind[obj] {
		if st, tracked := f.Res[site]; tracked {
			f.Res[site] = st&^(stateLive|stateUnsynced|stateDeferred) | stateEscaped
		}
	}
}

// escapeFuncLit ends tracking for values captured by a closure.
func (lf *lifecycleFlow) escapeFuncLit(fl *ast.FuncLit, f *Facts) {
	lf.escapeIdents(fl.Body, f)
}

// leakCheck reports every resource still carrying a Live obligation at
// a function exit, anchored at its creation site.
func (lf *lifecycleFlow) leakCheck(f *Facts) {
	for _, site := range f.SortedSites() {
		if f.Res[site]&stateLive != 0 {
			lf.reportOnce(site.Pos(), 'l', lf.spec.leakMsg, callName(site))
		}
	}
}

// Refine narrows facts along condition edges: the nil guard paired
// with a creation's error result, direct nil checks of tracked
// variables, and Test-style conditional completion.
func (lf *lifecycleFlow) Refine(cond ast.Expr, branch bool, f *Facts) {
	if id, op, ok := nilComparison(lf.p.Info, cond); ok {
		obj := lf.p.objOf(id)
		if obj == nil {
			return
		}
		nonNilEdge := (op == token.NEQ) == branch
		if nonNilEdge {
			// err != nil: every creation paired with err produced nil —
			// no obligation on this path.
			for site, eobj := range f.Pair {
				if eobj == obj {
					delete(f.Res, site)
				}
			}
		} else {
			// x == nil: a nil tracked value carries no obligation.
			for _, site := range f.Bind[obj] {
				delete(f.Res, site)
			}
		}
		return
	}
	if call, ok := unparen(cond).(*ast.CallExpr); ok && branch && lf.classify(call) == verbTest {
		lf.releaseArgs(call, f, false, stateReleased)
	}
}
