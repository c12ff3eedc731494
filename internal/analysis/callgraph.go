package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file builds the package-level call graph the interprocedural
// summaries are computed over. Nodes are the functions and methods
// declared with bodies in the pass's files; edges are direct calls
// resolved through go/types (method calls included), calls through
// singly-bound function-valued locals (`f := rank.Isend; f(...)`,
// resolved by devirt.go's method-value scan), and calls through
// interface values devirtualized to every in-package implementation
// (devirt.go). Cross-package calls stay conservative at the call
// site. Strongly connected components are ordered bottom-up (callees
// before callers) so summary computation processes a function only
// after everything it calls — including all devirtualized targets of
// its interface calls.

// CallGraph is the package-level call graph of one pass.
type CallGraph struct {
	// Funcs maps every function declared with a body in the pass to its
	// declaration.
	Funcs map[*types.Func]*ast.FuncDecl
	// Calls maps a function to its same-package callees, deduplicated
	// and sorted by declaration position.
	Calls map[*types.Func][]*types.Func
	// SCCs lists the strongly connected components bottom-up: every
	// callee of a component lives in the same or an earlier component.
	SCCs [][]*types.Func
}

// CallGraph returns the pass's call graph, building it on first use.
func (p *Pass) CallGraph() *CallGraph {
	if p.callgraph != nil {
		return p.callgraph
	}
	g := &CallGraph{
		Funcs: map[*types.Func]*ast.FuncDecl{},
		Calls: map[*types.Func][]*types.Func{},
	}
	var order []*types.Func // declaration order, for determinism
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.Funcs[fn] = fd
			order = append(order, fn)
		}
	}
	for _, fn := range order {
		fd := g.Funcs[fn]
		seen := map[*types.Func]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := p.calledFunc(call)
			if callee == nil {
				return true
			}
			if _, declared := g.Funcs[callee]; !declared {
				// An interface method has no body here; its
				// devirtualized targets become the edges so the SCC
				// order still computes every possible callee first.
				for _, t := range p.ifaceTargetsOf(callee) {
					if _, ok := g.Funcs[t]; ok && !seen[t] {
						seen[t] = true
						g.Calls[fn] = append(g.Calls[fn], t)
					}
				}
				return true
			}
			if !seen[callee] {
				seen[callee] = true
				g.Calls[fn] = append(g.Calls[fn], callee)
			}
			return true
		})
		sort.Slice(g.Calls[fn], func(i, j int) bool {
			return g.Calls[fn][i].Pos() < g.Calls[fn][j].Pos()
		})
	}
	g.SCCs = tarjanSCC(order, g.Calls)
	p.callgraph = g
	return g
}

// funcsInOrder returns the call graph's functions in declaration
// order, for deterministic report order within a file set.
func funcsInOrder(g *CallGraph) []*types.Func {
	fns := make([]*types.Func, 0, len(g.Funcs))
	for fn := range g.Funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	return fns
}

// calledFunc resolves a call expression to the *types.Func it invokes
// directly, or nil for builtins, conversions, and function values with
// no statically known binding. A call through a local variable that
// every assignment binds to the same function or method value
// (`f := rank.Isend; f(...)`) resolves to that function.
func (p *Pass) calledFunc(call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
		return p.methodValue(fun)
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// tarjanSCC computes strongly connected components over the given
// nodes. Tarjan's algorithm emits a component only after every
// component it can reach, so the returned order is already bottom-up.
// Iteration over nodes in declaration order keeps the result
// deterministic.
func tarjanSCC(nodes []*types.Func, edges map[*types.Func][]*types.Func) [][]*types.Func {
	type vstate struct {
		index, lowlink int
		onStack        bool
	}
	states := map[*types.Func]*vstate{}
	var stack []*types.Func
	var sccs [][]*types.Func
	next := 0

	var strongconnect func(v *types.Func)
	strongconnect = func(v *types.Func) {
		sv := &vstate{index: next, lowlink: next, onStack: true}
		states[v] = sv
		next++
		stack = append(stack, v)

		for _, w := range edges[v] {
			sw, visited := states[w]
			switch {
			case !visited:
				strongconnect(w)
				if lw := states[w].lowlink; lw < sv.lowlink {
					sv.lowlink = lw
				}
			case sw.onStack:
				if sw.index < sv.lowlink {
					sv.lowlink = sw.index
				}
			}
		}

		if sv.lowlink == sv.index {
			var scc []*types.Func
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				states[w].onStack = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			// Members in declaration order, for deterministic recompute
			// order inside the component.
			sort.Slice(scc, func(i, j int) bool { return scc[i].Pos() < scc[j].Pos() })
			sccs = append(sccs, scc)
		}
	}

	for _, v := range nodes {
		if _, visited := states[v]; !visited {
			strongconnect(v)
		}
	}
	return sccs
}

// selfRecursive reports whether fn calls itself directly.
func (g *CallGraph) selfRecursive(fn *types.Func) bool {
	for _, c := range g.Calls[fn] {
		if c == fn {
			return true
		}
	}
	return false
}
