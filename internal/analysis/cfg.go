package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file builds intraprocedural control-flow graphs over go/ast
// function bodies, the substrate of the flow-sensitive lifecycle rules
// (mrleak, mrpin, offload, reqwait). The builder is purely syntactic —
// no type information is needed.
//
// Granularity: a Block holds a straight-line run of ast.Nodes
// (statements and, for condition blocks, one leaf condition
// expression). Short-circuit conditions are desugared: `a && b` becomes
// two condition blocks, so a dataflow fact can be refined differently
// along the a-false edge and the b-false edge. Compound statements
// (if/for/switch/...) never appear as Block nodes — they are decomposed
// into their pieces — with one exception: *ast.RangeStmt appears as the
// loop-head node (analyses must not traverse its Body, which lives in
// other blocks).

// A Block is one straight-line run of CFG nodes.
type Block struct {
	// Index is the block's position in CFG.Blocks, stable across runs.
	Index int
	// Nodes holds the statements (and leaf condition expressions)
	// executed in order when control enters the block.
	Nodes []ast.Node
	// Succs are the possible successors. A block with Cond != nil has
	// exactly two: Succs[0] when Cond evaluates true, Succs[1] when
	// false. Multi-way blocks (range heads, switch tests, select heads)
	// have Cond == nil and any number of successors.
	Succs []*Block
	// Cond is the leaf condition expression terminating a two-way
	// conditional block, or nil.
	Cond ast.Expr
}

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block control enters first.
	Entry *Block
	// Exit is the single synthetic exit block; every return statement
	// and the implicit fall-off-the-end edge lead here. Terminating
	// calls (panic, os.Exit, log.Fatal) end their block with no
	// successors, so obligations on panic paths never reach Exit.
	Exit *Block
	// Blocks lists every block in creation order; Blocks[i].Index == i.
	Blocks []*Block
}

// ImplicitReturn marks the fall-off-the-end exit of a function body. It
// is appended as the final node on the path that reaches the end of the
// body without an explicit return, so exit-obligation checks (leaks,
// unwaited requests) have a node to anchor to.
type ImplicitReturn struct {
	// Body is the function body falling off the end; Pos/End delegate
	// to it so reports point at the closing brace.
	Body *ast.BlockStmt
}

// Pos returns the position of the body's closing brace.
func (r *ImplicitReturn) Pos() token.Pos { return r.Body.Rbrace }

// End returns the position just past the closing brace.
func (r *ImplicitReturn) End() token.Pos { return r.Body.Rbrace + 1 }

// DeferRun marks the execution of one deferred call at function exit.
// The builder appends DeferRun nodes — most recently registered defer
// first, matching Go's LIFO order — to the exit block and after every
// terminating call (deferred functions run during a panic unwind too).
// Whether a given defer was actually registered on the path reaching
// the exit is a dataflow fact, not a CFG fact: analyses gate the node's
// effect on state armed at the corresponding *ast.DeferStmt.
type DeferRun struct {
	// Defer is the registering statement; Pos/End delegate to it so
	// reports point at the defer site.
	Defer *ast.DeferStmt
}

// Pos returns the position of the registering defer statement.
func (d *DeferRun) Pos() token.Pos { return d.Defer.Pos() }

// End returns the end of the registering defer statement.
func (d *DeferRun) End() token.Pos { return d.Defer.End() }

// ExitCheck anchors end-of-function obligation checks. It is the last
// node of the exit block, after every DeferRun, so leak checks observe
// the state left behind by deferred cleanups.
type ExitCheck struct {
	// Body is the function body; Pos/End point at its closing brace.
	Body *ast.BlockStmt
}

// Pos returns the position of the body's closing brace.
func (c *ExitCheck) Pos() token.Pos { return c.Body.Rbrace }

// End returns the position just past the closing brace.
func (c *ExitCheck) End() token.Pos { return c.Body.Rbrace + 1 }

// NewCFG builds the control-flow graph of one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: map[string]*Block{}}
	b.cfg.Entry = b.block()
	b.cfg.Exit = b.block()
	b.cur = b.cfg.Entry
	b.stmt(body)
	if b.cur != nil {
		b.add(&ImplicitReturn{Body: body})
	}
	b.edge(b.cfg.Exit)
	// The exit epilogue: deferred calls run on every exiting path (LIFO),
	// then the obligation check anchors after them.
	for i := len(b.defers) - 1; i >= 0; i-- {
		b.cfg.Exit.Nodes = append(b.cfg.Exit.Nodes, &DeferRun{Defer: b.defers[i]})
	}
	b.cfg.Exit.Nodes = append(b.cfg.Exit.Nodes, &ExitCheck{Body: body})
	return b.cfg
}

// target is one enclosing break/continue destination.
type target struct {
	label string
	block *Block
}

type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminator
	// (return/branch/panic) until the next statement starts a fresh —
	// possibly unreachable — block.
	cur *Block

	breaks       []target
	continues    []target
	fallthroughs []*Block // innermost switch's next-case body (or nil)
	labels       map[string]*Block
	// defers lists the function's defer statements in registration
	// order; NewCFG replays them in reverse on the exit block and after
	// terminating calls.
	defers []*ast.DeferStmt
}

// block allocates a new empty block.
func (b *cfgBuilder) block() *Block {
	nb := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, nb)
	return nb
}

// add appends a node to the current block, starting a fresh
// (unreachable) block if the previous one was terminated.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.block()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// edge links the current block to next (no-op when control cannot fall
// through).
func (b *cfgBuilder) edge(next *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, next)
	}
}

// jump links the current block to next and marks fallthrough dead.
func (b *cfgBuilder) jump(next *Block) {
	b.edge(next)
	b.cur = nil
}

// label returns (creating on first use) the block a label names, so
// forward gotos resolve without a patch pass.
func (b *cfgBuilder) label(name string) *Block {
	lb, ok := b.labels[name]
	if !ok {
		lb = b.block()
		b.labels[name] = lb
	}
	return lb
}

// findTarget resolves a break/continue to the innermost matching
// enclosing target.
func findTarget(stack []target, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, t := range s.List {
			b.stmt(t)
		}
	case *ast.LabeledStmt:
		lb := b.label(s.Label.Name)
		b.edge(lb)
		b.cur = lb
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt:
			b.forStmt(inner, s.Label.Name)
		case *ast.RangeStmt:
			b.rangeStmt(inner, s.Label.Name)
		case *ast.SwitchStmt:
			b.switchStmt(inner, s.Label.Name)
		case *ast.TypeSwitchStmt:
			b.typeSwitchStmt(inner, s.Label.Name)
		case *ast.SelectStmt:
			b.selectStmt(inner, s.Label.Name)
		default:
			b.stmt(s.Stmt)
		}
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := findTarget(b.breaks, labelName(s)); t != nil {
				b.jump(t)
			} else {
				b.cur = nil // malformed; type check would reject
			}
		case token.CONTINUE:
			if t := findTarget(b.continues, labelName(s)); t != nil {
				b.jump(t)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			b.jump(b.label(s.Label.Name))
		case token.FALLTHROUGH:
			if n := len(b.fallthroughs); n > 0 && b.fallthroughs[n-1] != nil {
				b.jump(b.fallthroughs[n-1])
			} else {
				b.cur = nil
			}
		}
	case *ast.ExprStmt:
		b.add(s)
		if terminatingCall(s.X) {
			// Deferred calls run during the panic unwind: replay the
			// defers registered so far (LIFO) before pruning the path.
			for i := len(b.defers) - 1; i >= 0; i-- {
				b.add(&DeferRun{Defer: b.defers[i]})
			}
			b.cur = nil
		}
	case *ast.DeferStmt:
		b.add(s)
		b.defers = append(b.defers, s)
	case *ast.EmptyStmt:
		// nothing
	default:
		// Assign, Decl, IncDec, Send, Go: straight-line.
		b.add(s)
	}
}

// labelName returns a branch statement's label, or "".
func labelName(s *ast.BranchStmt) string {
	if s.Label == nil {
		return ""
	}
	return s.Label.Name
}

// cond emits the short-circuit evaluation of e starting in the current
// block, branching to t when e is true and to f when false.
func (b *cfgBuilder) cond(e ast.Expr, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			rhs := b.block()
			b.cond(x.X, rhs, f)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			rhs := b.block()
			b.cond(x.X, t, rhs)
			b.cur = rhs
			b.cond(x.Y, t, f)
			return
		}
	}
	// Leaf condition: terminate the current block two-way.
	b.add(e)
	b.cur.Cond = e
	b.cur.Succs = append(b.cur.Succs, t, f)
	b.cur = nil
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	then := b.block()
	after := b.block()
	elseTo := after
	if s.Else != nil {
		elseTo = b.block()
	}
	b.cond(s.Cond, then, elseTo)
	b.cur = then
	b.stmt(s.Body)
	b.edge(after)
	if s.Else != nil {
		b.cur = elseTo
		b.stmt(s.Else)
		b.edge(after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.block()
	body := b.block()
	after := b.block()
	post := head
	if s.Post != nil {
		post = b.block()
	}
	b.edge(head)
	b.cur = head
	if s.Cond != nil {
		b.cond(s.Cond, body, after)
	} else {
		b.jump(body)
	}
	b.cur = body
	b.breaks = append(b.breaks, target{label, after})
	b.continues = append(b.continues, target{label, post})
	b.stmt(s.Body)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.edge(post)
	if s.Post != nil {
		b.cur = post
		b.add(s.Post)
		b.edge(head)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.block()
	body := b.block()
	after := b.block()
	b.edge(head)
	b.cur = head
	// The RangeStmt itself is the head node (key/value binding and the
	// ranged expression); analyses must not traverse s.Body from it.
	b.add(s)
	b.edge(body)
	b.edge(after)
	b.cur = body
	b.breaks = append(b.breaks, target{label, after})
	b.continues = append(b.continues, target{label, head})
	b.stmt(s.Body)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.edge(head)
	b.cur = after
}

// caseBodies builds the shared clause machinery of switch-like
// statements: a test chain in declaration order, then each clause body
// wired to after, with optional fallthrough to the next body.
func (b *cfgBuilder) caseBodies(clauses []ast.Stmt, after *Block, label string, allowFallthrough bool) {
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.block()
	}
	defIdx := -1
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			defIdx = i
			continue
		}
		test := b.block()
		b.edge(test)
		b.cur = test
		for _, e := range cc.List {
			b.add(e)
		}
		b.edge(bodies[i])
		// cur stays on the test block: the no-match edge chains on.
	}
	if defIdx >= 0 {
		b.edge(bodies[defIdx])
	} else {
		b.edge(after)
	}
	b.cur = nil
	b.breaks = append(b.breaks, target{label, after})
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = bodies[i]
		var ft *Block
		if allowFallthrough && i+1 < len(clauses) {
			ft = bodies[i+1]
		}
		b.fallthroughs = append(b.fallthroughs, ft)
		for _, t := range cc.Body {
			b.stmt(t)
		}
		b.fallthroughs = b.fallthroughs[:len(b.fallthroughs)-1]
		b.edge(after)
		b.cur = nil
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	after := b.block()
	b.caseBodies(s.Body.List, after, label, true)
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	after := b.block()
	b.caseBodies(s.Body.List, after, label, false)
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	after := b.block()
	head := b.cur
	if head == nil {
		head = b.block()
		b.cur = head
	}
	b.breaks = append(b.breaks, target{label, after})
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		body := b.block()
		head.Succs = append(head.Succs, body)
		b.cur = body
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		for _, t := range cc.Body {
			b.stmt(t)
		}
		b.edge(after)
		b.cur = nil
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	if len(s.Body.List) == 0 {
		head.Succs = append(head.Succs, after)
	}
	b.cur = after
}

// terminatingFuncs are selector names that never return: the process
// (or goroutine) is gone, so resource obligations on these paths are
// moot. Receiver-agnostic so testing.T Fatal variants match too.
var terminatingFuncs = map[string]bool{
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"FailNow": true, "SkipNow": true, "Skipf": true, "Goexit": true,
	"Exit": true,
}

// terminatingCall reports whether the expression statement is a call
// that never returns: panic, os.Exit, log.Fatal*, runtime.Goexit, or a
// testing Fatal/Skip method. Purely syntactic — a local function that
// happens to be named Exit would match, which is acceptable for a
// may-analysis (it only suppresses reports on that path).
func terminatingCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		return terminatingFuncs[fn.Sel.Name]
	}
	return false
}

// String renders the CFG compactly for tests and debugging:
// "b0[3n] -> b2 b4" per line, with E marking the exit block and ?
// marking condition blocks.
func (c *CFG) String() string {
	var sb strings.Builder
	for _, b := range c.Blocks {
		mark := ""
		if b == c.Exit {
			mark = "E"
		}
		if b.Cond != nil {
			mark += "?"
		}
		succs := make([]int, len(b.Succs))
		for i, s := range b.Succs {
			succs[i] = s.Index
		}
		fmt.Fprintf(&sb, "b%d%s[%dn]", b.Index, mark, len(b.Nodes))
		if len(succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range succs {
				fmt.Fprintf(&sb, " b%d", s)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Reachable returns the blocks reachable from Entry in index order.
func (c *CFG) Reachable() []*Block {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(c.Entry)
	var out []*Block
	for _, b := range c.Blocks {
		if seen[b] {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
