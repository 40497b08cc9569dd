// Package dataflow is the third tier of the rtseed-vet analyzer stack: an
// intraprocedural dataflow layer built only on the standard library.
//
// Tier 1 (PR 2) is syntactic — pattern-match a call, report it. Tier 2
// (PR 5) is the whole-module call graph — reachability over functions.
// This package adds the missing value dimension: per-function control-flow
// graphs built from go/ast, a generic forward worklist solver over them,
// and a small taint/abstract-domain toolkit keyed on types.Object plus
// field paths. The timeunits, detflow, bodystep, and eventhandle analyzers
// are built on top of it.
//
// The CFG builder is deliberately type-free: it consumes syntax alone, so
// it can run over anything that parses (including fuzz-generated bodies)
// and never depends on a loaded package.
package dataflow

import (
	"go/ast"
	"go/token"
)

// Block is a basic block: a maximal run of statements and control
// expressions that execute without internal control transfer. Nodes holds
// them in execution order; besides plain statements it includes the
// condition expressions of if/for and the tag of a switch, so a transfer
// function sees every evaluated expression exactly once.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block

	// kind is a debugging aid only ("entry", "exit", "if.then", ...).
	kind string
}

// CFG is the control-flow graph of one function body. Entry and Exit are
// synthetic: Entry leads to the first statement, and every return (plus
// falling off the end of the body) leads to Exit. Exit has no successors.
//
// Defer statements are collected in syntactic order into Defers and also
// appear as ordinary nodes in their block (so their call expression's
// operands are seen where they are evaluated); analyses that care about
// deferred *effects* replay Defers as happening on the Exit edge.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	Defers []*ast.DeferStmt
}

// BuildCFG constructs the control-flow graph of a function body. body may be
// nil (a declaration without a body), in which case the graph is just
// Entry→Exit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &builder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edgeTo(b.cfg.Exit) // falling off the end of the body
	b.resolveGotos()
	return b.cfg
}

// loopFrame is one enclosing breakable/continuable statement. post is the
// break target; head is the continue target (nil for switch/select, which
// are breakable but not continuable).
type loopFrame struct {
	label string
	post  *Block
	head  *Block
}

type pendingGoto struct {
	from  *Block
	label string
	pos   token.Pos
}

type builder struct {
	cfg *CFG
	cur *Block // nil while the current point is unreachable

	loops  []loopFrame
	labels map[string]*Block // goto targets
	gotos  []pendingGoto

	// pendingLabel is set while entering the statement under a LabeledStmt,
	// so the loop/switch it labels registers the label on its frame.
	pendingLabel string

	// lastFallthrough is the block that held the most recent fallthrough
	// statement; switchStmt reads it to wire the edge into the next clause.
	lastFallthrough *Block
}

func (b *builder) newBlock(kind string) *Block {
	bl := &Block{Index: len(b.cfg.Blocks), kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, bl)
	return bl
}

// edgeTo adds an edge cur→dst if the current point is reachable.
func (b *builder) edgeTo(dst *Block) {
	if b.cur == nil {
		return
	}
	addEdge(b.cur, dst)
}

func addEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// startBlock makes dst the current block (without adding an edge).
func (b *builder) startBlock(dst *Block) { b.cur = dst }

// add appends a node to the current block, opening a fresh (unreachable)
// block first if control cannot reach here — unreachable code is still
// mapped so analyses can walk it.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label is both a goto target and (when labeling a loop,
		// switch, or select) a break/continue anchor.
		head := b.newBlock("label." + s.Label.Name)
		b.edgeTo(head)
		b.startBlock(head)
		if b.labels == nil {
			b.labels = make(map[string]*Block)
		}
		b.labels[s.Label.Name] = head
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.edgeTo(b.cfg.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s)

	case *ast.RangeStmt:
		b.rangeStmt(s)

	case *ast.SwitchStmt:
		b.switchStmt(s)

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)

	case *ast.SelectStmt:
		b.selectStmt(s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			// panic terminates the path without reaching Exit: a path that
			// ends in panic never "returns" anything.
			b.cur = nil
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, Decl, IncDec, Go, Send — straight-line effects.
		b.add(s)
	}
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *builder) branch(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.BREAK:
		for i := len(b.loops) - 1; i >= 0; i-- {
			f := b.loops[i]
			if s.Label == nil || f.label == s.Label.Name {
				b.edgeTo(f.post)
				b.cur = nil
				return
			}
		}
		b.cur = nil // malformed (break outside loop); drop the path
	case token.CONTINUE:
		for i := len(b.loops) - 1; i >= 0; i-- {
			f := b.loops[i]
			if f.head == nil {
				continue // switch/select frames are not continuable
			}
			if s.Label == nil || f.label == s.Label.Name {
				b.edgeTo(f.head)
				b.cur = nil
				return
			}
		}
		b.cur = nil
	case token.GOTO:
		if s.Label != nil && b.cur != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name, pos: s.Pos()})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// The edge into the next clause body is wired by switchStmt; record
		// where the fallthrough happened so it knows the source block.
		b.lastFallthrough = b.cur
		b.cur = nil
	}
}

func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	b.takeLabel() // labels on if are goto-only anchors, already registered
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	condBlock := b.cur
	post := b.newBlock("if.post")

	then := b.newBlock("if.then")
	if condBlock != nil {
		addEdge(condBlock, then)
	}
	b.startBlock(then)
	b.stmtList(s.Body.List)
	b.edgeTo(post)

	if s.Else != nil {
		els := b.newBlock("if.else")
		if condBlock != nil {
			addEdge(condBlock, els)
		}
		b.startBlock(els)
		b.stmt(s.Else)
		b.edgeTo(post)
	} else if condBlock != nil {
		addEdge(condBlock, post)
	}
	b.startBlock(post)
	if len(post.Preds) == 0 {
		b.cur = nil
		post.kind = "if.post.unreachable"
	}
}

func (b *builder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	post := b.newBlock("for.post")
	contTarget := head
	var postBlock *Block
	if s.Post != nil {
		postBlock = b.newBlock("for.inc")
		postBlock.Nodes = append(postBlock.Nodes, s.Post)
		addEdge(postBlock, head)
		contTarget = postBlock
	}
	b.edgeTo(head)
	b.startBlock(head)
	if s.Cond != nil {
		b.add(s.Cond)
		addEdge(head, post) // condition false
	}
	body := b.newBlock("for.body")
	addEdge(head, body)
	b.startBlock(body)
	b.loops = append(b.loops, loopFrame{label: label, post: post, head: contTarget})
	b.stmtList(s.Body.List)
	b.loops = b.loops[:len(b.loops)-1]
	b.edgeTo(contTarget)
	b.startBlock(post)
	if len(post.Preds) == 0 {
		// for {} with no breaks: everything after is unreachable.
		b.cur = nil
	}
}

func (b *builder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock("range.head")
	post := b.newBlock("range.post")
	b.edgeTo(head)
	b.startBlock(head)
	b.add(s)            // the RangeStmt node carries X plus the Key/Value binding
	addEdge(head, post) // range may be empty
	body := b.newBlock("range.body")
	addEdge(head, body)
	b.startBlock(body)
	b.loops = append(b.loops, loopFrame{label: label, post: post, head: head})
	b.stmtList(s.Body.List)
	b.loops = b.loops[:len(b.loops)-1]
	b.edgeTo(head)
	b.startBlock(post)
}

func (b *builder) switchStmt(s *ast.SwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.cur
	post := b.newBlock("switch.post")
	b.loops = append(b.loops, loopFrame{label: label, post: post})

	var clauseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cb := b.newBlock("switch.case")
		if head != nil {
			addEdge(head, cb)
		}
		clauseBlocks = append(clauseBlocks, cb)
		clauses = append(clauses, cc)
	}
	for i, cc := range clauses {
		b.startBlock(clauseBlocks[i])
		// Case expressions are evaluated to choose the clause; attach them
		// to the clause block so their side effects are visible.
		for _, e := range cc.List {
			b.add(e)
		}
		b.lastFallthrough = nil
		b.stmtList(cc.Body)
		if b.lastFallthrough != nil && i+1 < len(clauseBlocks) {
			// The fallthrough statement ended its path (cur == nil); wire
			// the structural edge into the next clause's block.
			addEdge(b.lastFallthrough, clauseBlocks[i+1])
		}
		b.edgeTo(post)
	}
	if head != nil && !hasDefault {
		addEdge(head, post) // no case matched
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.startBlock(post)
	if len(post.Preds) == 0 {
		b.cur = nil
	}
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	head := b.cur
	post := b.newBlock("typeswitch.post")
	b.loops = append(b.loops, loopFrame{label: label, post: post})
	hasDefault := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		cb := b.newBlock("typeswitch.case")
		if head != nil {
			addEdge(head, cb)
		}
		b.startBlock(cb)
		b.stmtList(cc.Body)
		b.edgeTo(post)
	}
	if head != nil && !hasDefault {
		addEdge(head, post)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.startBlock(post)
	if len(post.Preds) == 0 {
		b.cur = nil
	}
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.cur
	post := b.newBlock("select.post")
	b.loops = append(b.loops, loopFrame{label: label, post: post})
	any := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		cb := b.newBlock("select.case")
		if head != nil {
			addEdge(head, cb)
		}
		b.startBlock(cb)
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edgeTo(post)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.startBlock(post)
	if !any || len(post.Preds) == 0 {
		// select {} blocks forever.
		b.cur = nil
	}
}

func (b *builder) resolveGotos() {
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			addEdge(g.from, target)
		}
		// An unresolved label is a compile error in real code; for fuzzed
		// or malformed input we simply drop the edge.
	}
}
