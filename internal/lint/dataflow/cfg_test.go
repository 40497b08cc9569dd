package dataflow

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFunc parses src as a file and returns the named function plus type
// info. Sources must be import-free so no importer is needed.
func parseFunc(t *testing.T, src, name string) (*token.FileSet, *types.Info, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Error: func(error) {}}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fset, info, fd
		}
	}
	t.Fatalf("no func %s", name)
	return nil, nil, nil
}

// CheckInvariants asserts the structural CFG invariants the module-wide
// self-check also relies on: entry/exit well-formed, edges bidirectionally
// consistent, every edge endpoint registered in Blocks.
func CheckInvariants(c *CFG) error {
	if c.Entry == nil || c.Exit == nil {
		return fmt.Errorf("missing entry or exit")
	}
	if len(c.Exit.Succs) != 0 {
		return fmt.Errorf("exit block has %d successors", len(c.Exit.Succs))
	}
	index := map[*Block]bool{}
	for i, b := range c.Blocks {
		if b == nil {
			return fmt.Errorf("nil block at %d", i)
		}
		if b.Index != i {
			return fmt.Errorf("block %d has Index %d", i, b.Index)
		}
		index[b] = true
	}
	if !index[c.Entry] || !index[c.Exit] {
		return fmt.Errorf("entry or exit not registered in Blocks")
	}
	count := func(list []*Block, want *Block) int {
		n := 0
		for _, b := range list {
			if b == want {
				n++
			}
		}
		return n
	}
	for _, b := range c.Blocks {
		for _, s := range b.Succs {
			if !index[s] {
				return fmt.Errorf("block %d: dangling successor", b.Index)
			}
			if count(s.Preds, b) != count(b.Succs, s) {
				return fmt.Errorf("edge %d->%d: succ/pred mismatch", b.Index, s.Index)
			}
		}
		for _, p := range b.Preds {
			if !index[p] {
				return fmt.Errorf("block %d: dangling predecessor", b.Index)
			}
		}
	}
	return nil
}

func buildFor(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	c := BuildCFG(fd.Body)
	if err := CheckInvariants(c); err != nil {
		t.Fatalf("invariants: %v\nbody:\n%s", err, body)
	}
	return c
}

func TestCFGShapes(t *testing.T) {
	cases := []struct {
		name string
		body string
		// wantExitPreds is the number of predecessors of Exit (distinct
		// return points plus fall-off-the-end), a cheap shape signature.
		wantExitPreds int
	}{
		{"empty", ``, 1},
		{"straightline", `x := 1; _ = x`, 1},
		{"ifelse", `x := 1; if x > 0 { x = 2 } else { x = 3 }; _ = x`, 1},
		{"earlyreturn", `x := 1; if x > 0 { return }; _ = x`, 2},
		{"forloop", `for i := 0; i < 3; i++ { _ = i }`, 1},
		{"forever", `for { }`, 0},
		{"foreverbreak", `for { break }`, 1},
		{"rangeloop", `s := []int{1}; for _, v := range s { _ = v }`, 1},
		{"switchdefault", `x := 1; switch x { case 1: x = 2; default: x = 3 }; _ = x`, 1},
		{"selectempty", `select { }`, 0},
		{"panics", `panic("x")`, 0},
		{"panicbranch", `x := 1; if x > 0 { panic("x") }; _ = x`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := buildFor(t, tc.body)
			if got := len(c.Exit.Preds); got != tc.wantExitPreds {
				t.Errorf("exit preds = %d, want %d", got, tc.wantExitPreds)
			}
		})
	}
}

func TestCFGLoopEdges(t *testing.T) {
	c := buildFor(t, `for i := 0; i < 3; i++ { if i == 1 { continue }; if i == 2 { break } }`)
	// The loop head must participate in a cycle.
	var head *Block
	for _, b := range c.Blocks {
		if b.kind == "for.head" {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no for.head block")
	}
	if len(head.Preds) < 2 {
		t.Errorf("loop head has %d preds, want >= 2 (entry edge + back edge)", len(head.Preds))
	}
}

func TestCFGLabeledBreakContinue(t *testing.T) {
	c := buildFor(t, `
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if j == 1 {
				continue outer
			}
			if j == 2 {
				break outer
			}
		}
	}`)
	if got := len(c.Exit.Preds); got != 1 {
		t.Errorf("exit preds = %d, want 1", got)
	}
	// break outer must bypass the inner loop's post block: the outer post
	// block has two predecessors (cond-false and the labeled break).
	var outerPosts []*Block
	for _, b := range c.Blocks {
		if b.kind == "for.post" && len(b.Preds) == 2 {
			outerPosts = append(outerPosts, b)
		}
	}
	if len(outerPosts) == 0 {
		t.Error("no for.post block with a labeled-break edge")
	}
}

func TestCFGGoto(t *testing.T) {
	c := buildFor(t, `
	i := 0
loop:
	i++
	if i < 3 {
		goto loop
	}`)
	var label *Block
	for _, b := range c.Blocks {
		if b.kind == "label.loop" {
			label = b
		}
	}
	if label == nil {
		t.Fatal("no label block")
	}
	if len(label.Preds) != 2 {
		t.Errorf("label block preds = %d, want 2 (fallthrough + goto)", len(label.Preds))
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	c := buildFor(t, `
	x := 1
	switch x {
	case 1:
		x = 2
		fallthrough
	case 2:
		x = 3
	}
	_ = x`)
	// The case-1 block must have an edge into the case-2 block.
	var caseBlocks []*Block
	for _, b := range c.Blocks {
		if b.kind == "switch.case" {
			caseBlocks = append(caseBlocks, b)
		}
	}
	if len(caseBlocks) != 2 {
		t.Fatalf("got %d case blocks, want 2", len(caseBlocks))
	}
	found := false
	for _, s := range caseBlocks[0].Succs {
		if s == caseBlocks[1] {
			found = true
		}
	}
	if !found {
		t.Error("no fallthrough edge from case 1 to case 2")
	}
}

func TestCFGDefersCollected(t *testing.T) {
	c := buildFor(t, `
	f := func() {}
	defer f()
	if true {
		defer f()
	}`)
	if len(c.Defers) != 2 {
		t.Errorf("got %d defers, want 2", len(c.Defers))
	}
}

func TestCFGNilBody(t *testing.T) {
	c := BuildCFG(nil)
	if err := CheckInvariants(c); err != nil {
		t.Fatal(err)
	}
	if len(c.Exit.Preds) != 1 {
		t.Errorf("exit preds = %d, want 1", len(c.Exit.Preds))
	}
}
