package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file implements the generic forward dataflow solver the
// lifecycle rules run on. The analysis is a "may" analysis over
// bitmask states: at a merge point a resource's state is the union of
// its states along all incoming paths, so a set Live bit at an exit
// means there EXISTS a path on which the resource is still live — the
// flow-sensitive reading of "must reach a release on all paths".
//
// Facts form a finite join-semilattice (finite creation sites × finite
// bitmasks, finite variables × finite site sets), in-facts only grow,
// and transfer functions are monotone bit operations, so the worklist
// iteration reaches a fixpoint.

// State is a bitmask of abstract conditions a tracked value may be in.
// The concrete bits are owned by the analysis built on the solver.
type State uint32

// Facts is the dataflow fact map at one program point.
type Facts struct {
	// Res maps each tracked creation site (the creating *ast.CallExpr)
	// to the union of states the resource may be in.
	Res map[ast.Node]State
	// Bind maps a variable to the creation sites it may hold.
	Bind map[types.Object][]ast.Node
	// Pair maps a creation site to the error variable assigned in the
	// same statement, enabling nil refinement: on an `err != nil` edge
	// the paired resource is known nil and its obligation dropped. A
	// nil value is the tombstone meaning the pairing was invalidated
	// (the error variable was reassigned, or paths disagree).
	Pair map[ast.Node]types.Object
}

// NewFacts returns an empty fact map.
func NewFacts() *Facts {
	return &Facts{
		Res:  map[ast.Node]State{},
		Bind: map[types.Object][]ast.Node{},
		Pair: map[ast.Node]types.Object{},
	}
}

// Clone deep-copies the facts.
func (f *Facts) Clone() *Facts {
	g := NewFacts()
	for k, v := range f.Res {
		g.Res[k] = v
	}
	for k, v := range f.Bind {
		g.Bind[k] = append([]ast.Node(nil), v...)
	}
	for k, v := range f.Pair {
		g.Pair[k] = v
	}
	return g
}

// Join merges other into f (union of sites and states, pairing
// tombstoned on disagreement) and reports whether f changed.
func (f *Facts) Join(other *Facts) bool {
	changed := false
	for k, v := range other.Res {
		if old, ok := f.Res[k]; !ok || old|v != old {
			f.Res[k] = old | v
			changed = true
		}
	}
	for k, v := range other.Bind {
		merged, grew := unionSites(f.Bind[k], v)
		if grew {
			f.Bind[k] = merged
			changed = true
		}
	}
	for k, v := range other.Pair {
		old, ok := f.Pair[k]
		switch {
		case !ok:
			f.Pair[k] = v
			changed = true
		case old != v && old != nil:
			f.Pair[k] = nil // disagreement: tombstone the refinement
			changed = true
		}
	}
	return changed
}

// unionSites merges two site lists, keeping them sorted by position so
// iteration order is deterministic.
func unionSites(a, b []ast.Node) ([]ast.Node, bool) {
	grew := false
	for _, n := range b {
		if !containsSite(a, n) {
			a = append(a, n)
			grew = true
		}
	}
	if grew {
		sort.Slice(a, func(i, j int) bool { return a[i].Pos() < a[j].Pos() })
	}
	return a, grew
}

func containsSite(list []ast.Node, n ast.Node) bool {
	for _, m := range list {
		if m == n {
			return true
		}
	}
	return false
}

// SortedSites returns the tracked creation sites in position order, for
// deterministic reporting.
func (f *Facts) SortedSites() []ast.Node {
	sites := make([]ast.Node, 0, len(f.Res))
	for s := range f.Res {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].Pos() < sites[j].Pos() })
	return sites
}

// A FlowProblem supplies the transfer functions of one forward dataflow
// analysis over a CFG.
type FlowProblem interface {
	// Transfer applies node n's effect to f in place. During fixpoint
	// iteration report is false; after convergence the solver replays
	// every reachable block once with report true, and the problem
	// emits its findings then.
	Transfer(n ast.Node, f *Facts, report bool)
	// Refine narrows f along the branch edge of a two-way condition
	// block: cond evaluated to true when branch is true.
	Refine(cond ast.Expr, branch bool, f *Facts)
}

// Solve runs the forward worklist iteration to fixpoint starting from
// empty entry facts and then replays each reachable block once in
// report mode. It returns the converged in-facts per block (indexed
// like c.Blocks, nil for unreachable blocks) so tests can inspect
// convergence directly.
func Solve(c *CFG, p FlowProblem) []*Facts {
	in := make([]*Facts, len(c.Blocks))
	in[c.Entry.Index] = NewFacts()

	// FIFO worklist with membership dedup: deterministic because block
	// successor order is deterministic.
	queue := []*Block{c.Entry}
	queued := make([]bool, len(c.Blocks))
	queued[c.Entry.Index] = true

	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b.Index] = false

		out := in[b.Index].Clone()
		for _, n := range b.Nodes {
			p.Transfer(n, out, false)
		}
		for i, s := range b.Succs {
			g := out
			if b.Cond != nil && len(b.Succs) == 2 {
				g = out.Clone()
				p.Refine(b.Cond, i == 0, g)
			}
			if in[s.Index] == nil {
				in[s.Index] = g.Clone()
			} else if !in[s.Index].Join(g) {
				continue
			}
			if !queued[s.Index] {
				queued[s.Index] = true
				queue = append(queue, s)
			}
		}
	}

	// Reporting replay over the converged facts, in block order.
	for _, b := range c.Blocks {
		if in[b.Index] == nil {
			continue // unreachable
		}
		f := in[b.Index].Clone()
		for _, n := range b.Nodes {
			p.Transfer(n, f, true)
		}
	}
	return in
}

// nilExpr reports whether e is the predeclared nil (via type info when
// available, syntactically otherwise).
func nilExpr(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok {
		return tv.IsNil()
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// nilComparison decomposes a leaf condition of the form `x == nil` or
// `x != nil` (either operand order), returning the compared identifier
// and the token (EQL or NEQ).
func nilComparison(info *types.Info, cond ast.Expr) (*ast.Ident, token.Token, bool) {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, 0, false
	}
	var idSide ast.Expr
	switch {
	case nilExpr(info, unparen(be.Y)):
		idSide = be.X
	case nilExpr(info, unparen(be.X)):
		idSide = be.Y
	default:
		return nil, 0, false
	}
	id, ok := unparen(idSide).(*ast.Ident)
	if !ok {
		return nil, 0, false
	}
	return id, be.Op, true
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
