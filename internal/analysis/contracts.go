package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
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
// — no analyzer change required. A directive on a function that also
// has a body is authoritative: it overrides the inferred summary.

// contractRole is one lifecycle obligation role.
type contractRole int

const (
	roleAcquire contractRole = iota + 1
	roleRelease
	roleAdvance
	roleTest
	roleBorrow
	rolePass
)

var contractRoleNames = map[string]contractRole{
	"acquire": roleAcquire,
	"release": roleRelease,
	"advance": roleAdvance,
	"test":    roleTest,
	"borrow":  roleBorrow,
	"pass":    rolePass,
}

func (r contractRole) String() string {
	switch r {
	case roleAcquire:
		return "acquire"
	case roleRelease:
		return "release"
	case roleAdvance:
		return "advance"
	case roleTest:
		return "test"
	case roleBorrow:
		return "borrow"
	case rolePass:
		return "pass"
	}
	return "?"
}

// builtinContracts is the contract spec for the repository's visible
// protocol API. Each entry binds one callee name (optionally
// restricted to a receiver type) to a role under one rule; init()
// below derives the lifecycleSpecs' verb tables from it, so this table
// is the single place the recognized API surface lives.
var builtinContracts = []struct {
	rule string
	recv string // required receiver named type; "" accepts any
	name string
	role contractRole
}{
	{"mrleak", "", "RegMR", roleAcquire},
	{"mrleak", "", "RegMRBuffer", roleAcquire},
	{"mrleak", "", "DeregMR", roleRelease},

	{"mrpin", "MRCache", "Get", roleAcquire},
	{"mrpin", "MRCache", "Release", roleRelease},

	{"offload", "", "RegOffloadMR", roleAcquire},
	{"offload", "", "SyncOffloadMR", roleAdvance},
	{"offload", "", "DeregOffloadMR", roleRelease},

	{"reqwait", "", "Isend", roleAcquire},
	{"reqwait", "", "Irecv", roleAcquire},
	{"reqwait", "", "Wait", roleRelease},
	{"reqwait", "", "WaitAll", roleRelease},
	{"reqwait", "", "Test", roleTest},
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
		case roleAcquire:
			ensure(&spec.createNames, c.name)
			spec.createRecv = c.recv
		case roleRelease:
			ensure(&spec.releaseNames, c.name)
			spec.releaseRecv = c.recv
		case roleAdvance:
			ensure(&spec.advanceNames, c.name)
		case roleTest:
			ensure(&spec.testNames, c.name)
		default:
			panic("simlint: builtin contracts must use acquire/release/advance/test")
		}
	}
}

const contractPrefix = "//simlint:contract"

// parseContract parses one //simlint:contract comment.
func parseContract(text string) (rule string, role contractRole, ok bool) {
	if !strings.HasPrefix(text, contractPrefix) {
		return "", 0, false
	}
	fields := strings.Fields(strings.TrimPrefix(text, contractPrefix))
	if len(fields) < 2 {
		return "", 0, false
	}
	role, ok = contractRoleNames[fields[1]]
	if !ok {
		return "", 0, false
	}
	return fields[0], role, true
}

// contractIndex holds one pass's directive contracts.
type contractIndex struct {
	// byFunc maps a declared function or interface method to its
	// rule → role contracts.
	byFunc map[*types.Func]map[string]contractRole
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
		byFunc:       map[*types.Func]map[string]contractRole{},
		acquireNames: map[string]map[string]bool{},
	}
	type decl struct {
		rule string
		role contractRole
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
				ix.byFunc[fn] = map[string]contractRole{}
			}
			ix.byFunc[fn][d.rule] = d.role
			if d.role == roleAcquire {
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

// contractRoleOf returns fn's declared role under rule, if any.
func (p *Pass) contractRoleOf(fn *types.Func, rule string) (contractRole, bool) {
	if fn == nil {
		return 0, false
	}
	r, ok := p.contractsFor().byFunc[fn][rule]
	return r, ok
}

// contractAcquireNames returns the callee names declared acquire under
// rule by directives in this pass (nil when there are none).
func (p *Pass) contractAcquireNames(rule string) map[string]bool {
	return p.contractsFor().acquireNames[rule]
}

// contractSummary synthesizes the FuncSummary a declared role implies
// for fn's signature. Only parameters and results of the rule's
// resource type participate; everything else borrows.
func contractSummary(spec *lifecycleSpec, fn *types.Func, role contractRole) *FuncSummary {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	s := neutralSummary(sig)
	resourceParam := func(i int) bool {
		return namedTypeName(sig.Params().At(i).Type()) == spec.resultType
	}
	resourceResult := sig.Results().Len() > 0 &&
		namedTypeName(sig.Results().At(0).Type()) == spec.resultType
	switch role {
	case roleAcquire:
		if resourceResult {
			st := stateLive
			if spec.trackUnsynced {
				st |= stateUnsynced
			}
			s.Results[0].Acquires = st
		}
	case roleRelease:
		for i := 0; i < sig.Params().Len(); i++ {
			if resourceParam(i) {
				s.Params[i] = EffRelease
			}
		}
	case roleAdvance:
		for i := 0; i < sig.Params().Len(); i++ {
			if resourceParam(i) {
				s.Params[i] = EffAdvance
			}
		}
	case rolePass:
		if resourceResult {
			for i := 0; i < sig.Params().Len(); i++ {
				if resourceParam(i) {
					s.Results[0].FromParams = append(s.Results[0].FromParams, i)
				}
			}
		}
	case roleBorrow, roleTest:
		// Neutral: the caller keeps every obligation (test's conditional
		// release is handled by classify/Refine, not the summary).
	}
	return s
}

// ContractSummaryDump renders every directive contract in the pass as
// its synthesized summary under the given rule, deterministically
// sorted, for the determinism tests:
//
//	iface.Transport.AcquireMR contract(acquire) () -> (acquire)
func ContractSummaryDump(p *Pass, rule string) string {
	var spec *lifecycleSpec
	for _, s := range lifecycleSpecs() {
		if s.rule == rule {
			spec = s
		}
	}
	if spec == nil {
		return ""
	}
	var entries []string
	for fn, roles := range p.contractsFor().byFunc {
		role, ok := roles[rule]
		if !ok {
			continue
		}
		entries = append(entries, fmt.Sprintf("%s contract(%s) %s", fn.FullName(), role, contractSummary(spec, fn, role)))
	}
	sort.Strings(entries)
	var b strings.Builder
	for _, e := range entries {
		b.WriteString(e)
		b.WriteByte('\n')
	}
	return b.String()
}
