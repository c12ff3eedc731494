package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file resolves the two call shapes the static call graph alone
// cannot see through:
//
//   - Calls through interface values. These are devirtualized
//     CHA-style: the candidate targets of iface.M() are the M methods
//     of every concrete named type declared in the package that
//     implements the interface. The closed-world assumption — no
//     implementation outside the package dispatches through the call
//     site — is the documented soundness boundary (DESIGN.md §7f).
//     Rules consume the target set as a meet of obligations (a call
//     releases only if every target releases), so an unseen external
//     implementation can at worst hide a finding, never fabricate one.
//     A target set is usable only when every implementing method is
//     declared with a body in the pass; an embedded or external method
//     leaves the set open and the call stays conservative.
//
//   - Calls through function-valued locals (`f := rank.Isend; f(...)`).
//     A flow-insensitive scan maps each local variable to the single
//     static function or method value every assignment binds it to;
//     variables with conflicting, opaque, or aliased bindings are
//     dropped and their calls stay conservative.

// devirtIndex caches the pass's devirtualization state, built lazily
// once per pass.
type devirtIndex struct {
	// concrete lists the package's declared concrete named types in
	// scope-name order — the deterministic iteration basis.
	concrete []*types.Named
	// declared marks every function declared with a body in the pass.
	declared map[*types.Func]bool
	// targets caches interface method → implementing methods (nil for
	// "unresolvable": no implementers, or an open set).
	targets map[*types.Func][]*types.Func
	// methodVals maps a local function-valued variable to the one
	// static function it is bound to.
	methodVals map[types.Object]*types.Func
}

// devirtFor returns the pass's devirtualization index, building it on
// first use.
func (p *Pass) devirtFor() *devirtIndex {
	if p.devirt != nil {
		return p.devirt
	}
	d := &devirtIndex{
		declared:   map[*types.Func]bool{},
		targets:    map[*types.Func][]*types.Func{},
		methodVals: map[types.Object]*types.Func{},
	}
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		d.concrete = append(d.concrete, named)
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				d.declared[fn] = true
			}
		}
	}
	d.scanMethodValues(p)
	p.devirt = d
	return d
}

// scanMethodValues builds the function-valued-local map: one entry per
// variable whose every binding is the same statically known function.
// The poison set removes variables bound opaquely (a call result, a
// range clause, a multi-value assignment), bound to two different
// functions, or aliased by address-of.
func (d *devirtIndex) scanMethodValues(p *Pass) {
	poisoned := map[types.Object]bool{}
	bind := func(lhs, rhs ast.Expr) {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := p.objOf(id)
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() || obj.Parent() == p.Types.Scope() {
			return // only function-scoped locals are tracked
		}
		if _, isSig := v.Type().Underlying().(*types.Signature); !isSig {
			return
		}
		fn := staticFuncValue(p, rhs)
		if fn == nil {
			poisoned[obj] = true
			return
		}
		if prev, seen := d.methodVals[obj]; seen && prev != fn {
			poisoned[obj] = true
			return
		}
		d.methodVals[obj] = fn
	}
	opaque := func(lhs ast.Expr) {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if obj := p.objOf(id); obj != nil {
			if v, isVar := obj.(*types.Var); isVar {
				if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
					poisoned[obj] = true
				}
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						bind(n.Lhs[i], n.Rhs[i])
					}
				} else {
					for _, l := range n.Lhs {
						opaque(l)
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						bind(n.Names[i], n.Values[i])
					}
				} else if len(n.Values) > 0 {
					for _, id := range n.Names {
						opaque(id)
					}
				}
			case *ast.RangeStmt:
				opaque(n.Key)
				opaque(n.Value)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					opaque(n.X) // address taken: aliases unknown
				}
			}
			return true
		})
	}
	for obj := range poisoned {
		delete(d.methodVals, obj)
	}
}

// staticFuncValue resolves an expression used as a value to the
// function it denotes: a package function (`helper`), a package-
// qualified function (`pkg.Fn`), or a bound method value (`rank.Isend`).
// Method expressions (`Rank.Isend`) are excluded — their signature
// shifts the receiver into the parameter list, which would misalign
// every per-parameter summary.
func staticFuncValue(p *Pass, e ast.Expr) *types.Func {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[e]; ok && sel.Kind() != types.MethodVal {
			return nil
		}
		fn, _ := p.Info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// methodValue returns the function a function-valued identifier is
// statically bound to, or nil.
func (p *Pass) methodValue(id *ast.Ident) *types.Func {
	obj := p.objOf(id)
	if obj == nil {
		return nil
	}
	return p.devirtFor().methodVals[obj]
}

// ifaceTargetsOf devirtualizes one interface method: the implementing
// methods declared in the package, or nil when fn is not an interface
// method or the implementation set is open.
func (p *Pass) ifaceTargetsOf(fn *types.Func) []*types.Func {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	d := p.devirtFor()
	if ts, cached := d.targets[fn]; cached {
		return ts
	}
	var out []*types.Func
	for _, named := range d.concrete {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, p.Types, fn.Name())
		m, ok := obj.(*types.Func)
		if !ok || !d.declared[m] {
			// Embedded or external implementation: the set is open and
			// the call must stay conservative.
			out = nil
			break
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		out = nil
	}
	d.targets[fn] = out
	return out
}

// DevirtDump renders every devirtualized interface call edge in the
// pass as deterministic text (sorted by interface method name), e.g.:
//
//	iface.Backend.AcquireMR -> (*iface.Fast).AcquireMR | (*iface.Slow).AcquireMR
//
// Exposed for the summary-determinism tests.
func DevirtDump(p *Pass) string {
	edges := map[string][]string{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.calledFunc(call)
			targets := p.ifaceTargetsOf(fn)
			if len(targets) == 0 {
				return true
			}
			var names []string
			for _, t := range targets {
				names = append(names, t.FullName())
			}
			edges[fn.FullName()] = names
			return true
		})
	}
	keys := make([]string, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s -> %s\n", k, strings.Join(edges[k], " | "))
	}
	return b.String()
}
