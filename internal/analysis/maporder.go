package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// MapOrder flags range-over-map loops whose bodies do order-sensitive
// work: appending to an outer slice (without a subsequent sort),
// writing output, returning a value, or assigning loop-dependent
// values to enclosing-scope variables. Go randomizes map iteration
// precisely to surface such code; in this repository the failure mode
// is worse — bench tables, traces, and protocol decisions silently
// change between runs. The sanctioned pattern is: collect keys, sort,
// then iterate the sorted slice.
var MapOrder = &Analyzer{
	Name:  "maporder",
	Scope: ScopeIntra,
	Doc:   "forbid order-sensitive work (append/output/return/assignment) inside range-over-map",
	Run:   runMapOrder,
}

func runMapOrder(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			list := stmtList(n)
			for i, st := range list {
				rs, ok := st.(*ast.RangeStmt)
				if !ok || !p.isMapType(rs.X) {
					continue
				}
				p.checkMapRange(rs, list[i+1:])
			}
			return true
		})
	}
}

// stmtList returns the statement list a node carries, if any.
func stmtList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

// checkMapRange reports order-sensitive sinks inside one map-range
// body. rest holds the statements that follow the loop in its
// enclosing block, used to recognize the collect-then-sort idiom.
func (p *Pass) checkMapRange(rs *ast.RangeStmt, rest []ast.Stmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			p.checkMapRangeAssign(rs, n, rest)
		case *ast.ReturnStmt:
			if len(n.Results) > 0 {
				p.Reportf(n.Pos(), "return inside map iteration: which entry returns first depends on map order; iterate sorted keys")
			}
		case *ast.CallExpr:
			p.checkMapRangeOutput(n)
		}
		return true
	})
}

// checkMapRangeAssign flags writes from a map-range body into
// enclosing scope whose value depends on the iteration.
func (p *Pass) checkMapRangeAssign(rs *ast.RangeStmt, as *ast.AssignStmt, rest []ast.Stmt) {
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" || !p.declaredOutside(id, rs) {
			continue // writes to loop-locals or keyed element stores are order-safe
		}
		rhs := as.Rhs[0]
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		}
		// s = append(s, ...) — the canonical key-collection idiom; fine
		// when the slice is sorted after the loop, flagged otherwise.
		if call, isCall := rhs.(*ast.CallExpr); isCall {
			if fn, isIdent := call.Fun.(*ast.Ident); isIdent && fn.Name == "append" {
				if !p.sortedAfter(id, rest) {
					p.Reportf(as.Pos(), "append to %s in map-iteration order: sort %s after the loop (or iterate sorted keys)", id.Name, id.Name)
				}
				continue
			}
		}
		// Order only matters when successive iterations can write
		// different values: require the RHS to depend on loop-local
		// state (the key/value variables or anything derived from them).
		if isCompoundAssign(as.Tok) && p.isString(id) {
			p.Reportf(as.Pos(), "string concatenation onto %s in map-iteration order: iterate sorted keys", id.Name)
			continue
		}
		if p.dependsOnLoop(rhs, rs) {
			p.Reportf(as.Pos(), "assignment to %s of an iteration-dependent value: which key wins depends on map order; iterate sorted keys", id.Name)
		}
	}
}

// checkMapRangeOutput flags calls that emit output from inside the
// loop: fmt printing and io-style Write methods.
func (p *Pass) checkMapRangeOutput(call *ast.CallExpr) {
	if pkg, name, ok := p.pkgCallee(call); ok {
		if pkg == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
			p.Reportf(call.Pos(), "fmt.%s inside map iteration: output order follows map order; iterate sorted keys", name)
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		p.Reportf(call.Pos(), "%s inside map iteration: output order follows map order; iterate sorted keys", sel.Sel.Name)
	}
}

// sortedAfter reports whether a sort.* or slices.* call mentioning the
// slice appears in the statements after the loop.
func (p *Pass) sortedAfter(slice *ast.Ident, rest []ast.Stmt) bool {
	target := p.objOf(slice)
	if target == nil {
		return false
	}
	for _, st := range rest {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, _, ok := p.pkgCallee(call)
			if !ok || (pkg != "sort" && pkg != "slices") {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(an ast.Node) bool {
					if id, ok := an.(*ast.Ident); ok && p.objOf(id) == target {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// dependsOnLoop reports whether expr references any identifier
// declared inside the range statement (the key/value variables or
// locals derived from them).
func (p *Pass) dependsOnLoop(expr ast.Expr, rs *ast.RangeStmt) bool {
	dep := false
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := p.objOf(id); obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End() {
			dep = true
		}
		return !dep
	})
	return dep
}

// isCompoundAssign reports whether tok is an op= assignment.
func isCompoundAssign(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN,
		token.REM_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN,
		token.SHL_ASSIGN, token.SHR_ASSIGN, token.AND_NOT_ASSIGN:
		return true
	}
	return false
}
