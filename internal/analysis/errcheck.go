package analysis

import (
	"go/ast"
	"go/types"
)

// mpiOps are the MPI-shaped operations whose error results must not be
// dropped: an ignored error from a Send/Recv/Wait hides failed matches
// and truncated transfers, which then surface as wrong numbers in
// benches and examples rather than as failures.
var mpiOps = map[string]bool{
	"Send": true, "Recv": true, "Sendrecv": true,
	"Isend": true, "Irecv": true,
	"Wait": true, "WaitAll": true, "Test": true,
	"Barrier": true, "Bcast": true, "Reduce": true,
	"Allreduce": true, "Allgather": true, "Alltoall": true,
	"Scatter": true, "Gather": true,
	"Run": true, "Start": true, "StartAll": true, "Split": true,
}

// ErrCheck flags MPI operation calls whose error result is discarded —
// either as a bare statement or by assigning the error position to the
// blank identifier.
var ErrCheck = &Analyzer{
	Name:  "errcheck",
	Scope: ScopeIntra,
	Doc:   "forbid dropped error returns from MPI operations (Send/Recv/Wait/collectives/Run)",
	Run:   runErrCheck,
}

func runErrCheck(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, bad := p.dropsMPIError(call); bad {
						p.Reportf(call.Pos(), "error result of %s dropped: a failed MPI operation must not be ignored", name)
					}
				}
			case *ast.DeferStmt:
				if name, bad := p.dropsMPIError(n.Call); bad {
					p.Reportf(n.Call.Pos(), "error result of deferred %s dropped: a failed MPI operation must not be ignored", name)
				}
			case *ast.AssignStmt:
				p.checkBlankError(n)
			}
			return true
		})
	}
}

// dropsMPIError reports whether call is an MPI operation whose last
// result is an error (name is the reported callee).
func (p *Pass) dropsMPIError(call *ast.CallExpr) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !mpiOps[sel.Sel.Name] {
		return "", false // plain idents are local helpers
	}
	name := sel.Sel.Name
	sig := p.calleeSignature(call)
	if sig == nil || sig.Results().Len() == 0 {
		return "", false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !isErrorType(last) {
		return "", false
	}
	return name, true
}

// checkBlankError flags assignments that keep an MPI call's values but
// send the error result to the blank identifier.
func (p *Pass) checkBlankError(as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, bad := p.dropsMPIError(call)
	if !bad || len(as.Lhs) == 0 {
		return
	}
	// The error occupies the last result, so the last LHS receives it.
	if id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
		p.Reportf(as.Pos(), "error result of %s assigned to _: a failed MPI operation must not be ignored", name)
	}
}

// calleeSignature returns the called function's signature, or nil.
func (p *Pass) calleeSignature(call *ast.CallExpr) *types.Signature {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.(*types.Signature)
	return sig
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
