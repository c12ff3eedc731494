package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file is the declarative contract layer behind the lifecycle
// rules. The verbs each rule recognizes are not hardcoded in the rule
// implementations: builtinContracts is the checked-in contract spec
// for the stdlib-visible DCFA/IB stack (it populates the four
// lifecycleSpecs at init), and source code can declare further
// contracts directly on functions and methods — including interface
// methods — with a directive:
//
//	//simlint:contract <rule> <role> [reason]
//
// on the line above the declaration or in its doc comment. Roles:
//
//	acquire — the call returns a fresh tracked resource (its first
//	          result must be the rule's resource type)
//	release — the call discharges the obligation of every
//	          resource-typed argument on every path
//	advance — the call advances the protocol (offload sync)
//	test    — the call releases only when its result is true
//	borrow  — the call only reads its arguments; suppresses the
//	          conservative everything-escapes treatment
//	pass    — the call returns its resource-typed argument (a wrapper)
//
// A directive on an interface method applies to every call dispatched
// through that interface, so a new transport backend gets lifecycle
// checking by declaring contracts once on the interface it implements
// — no analyzer change required. Nothing is inferred from a function's
// body: a call to a function with no contract escapes its tracked
// arguments, so a helper on the path of a resource needs a directive
// exactly when the caller still owns the resource afterwards (borrow,
// pass), or when the helper is where it is acquired or released.

// verb is what a call does to a protocol's resource: the role its
// contract declares, or verbNone for a call with no contract.
type verb int

const (
	verbNone verb = iota
	verbAcquire
	verbRelease
	verbAdvance
	verbTest // releases only when the call's result is true
	verbBorrow
	verbPass
)

// verbNames are the directive keywords, indexed by verb.
var verbNames = [...]string{"", "acquire", "release", "advance", "test", "borrow", "pass"}

func (v verb) String() string { return verbNames[v] }

// verbByName resolves a directive's role keyword; verbNone if unknown.
func verbByName(name string) verb { return verb(slices.Index(verbNames[1:], name) + 1) }

// builtinContracts is the contract spec for the repository's visible
// protocol API. Each entry binds one callee name (optionally
// restricted to a receiver type) to a role under one rule; init()
// below derives the lifecycleSpecs' verb tables from it, so this table
// is the single place the recognized API surface lives.
var builtinContracts = []struct {
	rule string
	recv string // required receiver named type; "" accepts any
	name string
	role verb
}{
	{"mrleak", "", "RegMR", verbAcquire},
	{"mrleak", "", "RegMRBuffer", verbAcquire},
	{"mrleak", "", "DeregMR", verbRelease},

	{"mrpin", "MRCache", "Get", verbAcquire},
	{"mrpin", "MRCache", "Release", verbRelease},

	{"offload", "", "RegOffloadMR", verbAcquire},
	{"offload", "", "SyncOffloadMR", verbAdvance},
	{"offload", "", "DeregOffloadMR", verbRelease},

	{"reqwait", "", "Isend", verbAcquire},
	{"reqwait", "", "Irecv", verbAcquire},
	{"reqwait", "", "Wait", verbRelease},
	{"reqwait", "", "WaitAll", verbRelease},
	{"reqwait", "", "Test", verbTest},
}

// init populates the four lifecycleSpecs' verb tables from
// builtinContracts. Package-level spec variables initialize before any
// init function runs, so the pointers lifecycleSpecs returns are valid
// here.
func init() {
	byRule := map[string]*lifecycleSpec{}
	for _, spec := range lifecycleSpecs() {
		byRule[spec.rule] = spec
	}
	ensure := func(m *map[string]bool, name string) {
		if *m == nil {
			*m = map[string]bool{}
		}
		(*m)[name] = true
	}
	for _, c := range builtinContracts {
		spec := byRule[c.rule]
		if spec == nil {
			panic("simlint: builtin contract names unknown rule " + c.rule)
		}
		switch c.role {
		case verbAcquire:
			ensure(&spec.createNames, c.name)
			spec.createRecv = c.recv
		case verbRelease:
			ensure(&spec.releaseNames, c.name)
			spec.releaseRecv = c.recv
		case verbAdvance:
			ensure(&spec.advanceNames, c.name)
		case verbTest:
			ensure(&spec.testNames, c.name)
		default:
			panic("simlint: builtin contracts must use acquire/release/advance/test")
		}
	}
}

const contractPrefix = "//simlint:contract"

// parseContract parses one //simlint:contract comment.
func parseContract(text string) (rule string, role verb, ok bool) {
	if !strings.HasPrefix(text, contractPrefix) {
		return "", 0, false
	}
	fields := strings.Fields(strings.TrimPrefix(text, contractPrefix))
	if len(fields) < 2 {
		return "", 0, false
	}
	role = verbByName(fields[1])
	return fields[0], role, role != verbNone
}

// contractIndex holds one pass's directive contracts.
type contractIndex struct {
	// byFunc maps a declared function or interface method to its
	// rule → role contracts.
	byFunc map[*types.Func]map[string]verb
	// acquireNames collects, per rule, the names carrying an acquire
	// contract — the lifecycle prescreen consults it alongside the
	// builtin creation names.
	acquireNames map[string]map[string]bool
}

// contractsFor returns the pass's directive-contract index, building
// it on first use: every //simlint:contract comment is attached to the
// function declaration or interface method it annotates (doc comment,
// trailing comment, or the line directly above).
func (p *Pass) contractsFor() *contractIndex {
	if p.contracts != nil {
		return p.contracts
	}
	ix := &contractIndex{
		byFunc:       map[*types.Func]map[string]verb{},
		acquireNames: map[string]map[string]bool{},
	}
	type decl struct {
		rule string
		role verb
	}
	lines := map[string]map[int][]decl{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rule, role, ok := parseContract(c.Text)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				if lines[pos.Filename] == nil {
					lines[pos.Filename] = map[int][]decl{}
				}
				lines[pos.Filename][pos.Line] = append(lines[pos.Filename][pos.Line], decl{rule, role})
			}
		}
	}
	attachAt := func(fn *types.Func, file string, line int) {
		for _, d := range lines[file][line] {
			if ix.byFunc[fn] == nil {
				ix.byFunc[fn] = map[string]verb{}
			}
			ix.byFunc[fn][d.rule] = d.role
			if d.role == verbAcquire {
				if ix.acquireNames[d.rule] == nil {
					ix.acquireNames[d.rule] = map[string]bool{}
				}
				ix.acquireNames[d.rule][fn.Name()] = true
			}
		}
	}
	attachAround := func(fn *types.Func, doc, trailing *ast.CommentGroup, decl ast.Node) {
		if fn == nil {
			return
		}
		if doc != nil {
			for _, c := range doc.List {
				pos := p.Fset.Position(c.Pos())
				attachAt(fn, pos.Filename, pos.Line)
			}
		}
		if trailing != nil {
			for _, c := range trailing.List {
				pos := p.Fset.Position(c.Pos())
				attachAt(fn, pos.Filename, pos.Line)
			}
		}
		// Line directly above the declaration, for directives separated
		// from the doc comment.
		pos := p.Fset.Position(decl.Pos())
		attachAt(fn, pos.Filename, pos.Line-1)
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				attachAround(fn, fd.Doc, nil, fd)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok {
				return true
			}
			for _, field := range it.Methods.List {
				for _, name := range field.Names {
					fn, _ := p.Info.Defs[name].(*types.Func)
					attachAround(fn, field.Doc, field.Comment, field)
				}
			}
			return true
		})
	}
	p.contracts = ix
	return p.contracts
}

// contractOf returns the role a directive declares for fn under rule,
// verbNone when there is none (or fn is nil).
func (p *Pass) contractOf(fn *types.Func, rule string) verb {
	return p.contractsFor().byFunc[fn][rule]
}

// contractAcquireNames returns the callee names declared acquire under
// rule by directives in this pass (nil when there are none).
func (p *Pass) contractAcquireNames(rule string) map[string]bool {
	return p.contractsFor().acquireNames[rule]
}

// ContractSummaryDump renders every directive contract the pass
// declares under the given rule, deterministically sorted, for the
// determinism tests:
//
//	(mrleak.Registrar).Acquire contract(acquire)
func ContractSummaryDump(p *Pass, rule string) string {
	var entries []string
	for fn, roles := range p.contractsFor().byFunc {
		if role, ok := roles[rule]; ok {
			entries = append(entries, fmt.Sprintf("%s contract(%s)\n", fn.FullName(), role))
		}
	}
	sort.Strings(entries)
	return strings.Join(entries, "")
}

// calledFunc resolves a call expression to the *types.Func it names
// statically — a declared function, a method, or an interface method —
// or nil for builtins, conversions and function values.
func (p *Pass) calledFunc(call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
