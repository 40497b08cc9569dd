package dataflow

import (
	"go/ast"
	"testing"
)

// returnMarked solves a test-local may-problem over the function named f in
// src: assigning the literal 1 marks the destination, any other assignment
// copies the source's mark (struct copies included, by the field-path prefix
// rule). It reports whether the function's first return value is marked.
func returnMarked(t *testing.T, src string) bool {
	t.Helper()
	_, info, fd := parseFunc(t, src, "f")
	prob := Problem[State[bool]]{
		Entry: func() State[bool] { return State[bool]{} },
		Copy:  func(s State[bool]) State[bool] { return s.Copy() },
		Join:  func(dst, src State[bool]) bool { return dst.Merge(src) },
		Node: func(n ast.Node, s State[bool]) {
			ForEachAssign(n, func(lhs, rhs ast.Expr) {
				if rhs == nil {
					return
				}
				if bl, ok := rhs.(*ast.BasicLit); ok && bl.Value == "1" {
					s.Set(info, lhs, true)
					return
				}
				s.Assign(info, lhs, rhs)
			})
		},
	}
	c := BuildCFG(fd.Body)
	in := Forward(c, prob)
	marked := false
	for _, b := range c.Blocks {
		state, ok := in[b]
		if !ok {
			continue
		}
		Replay(b, state, prob, func(n ast.Node, s State[bool]) {
			if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) > 0 {
				if l, ok := s.Get(info, ret.Results[0]); ok && l {
					marked = true
				}
			}
		})
	}
	return marked
}

// TestForwardJoin checks the join at a merge point: a mark made on one
// branch reaches the code after the if.
func TestForwardJoin(t *testing.T) {
	if !returnMarked(t, `package p
func f(c bool) int {
	x := 0
	if c {
		x = 1
	}
	return x
}`) {
		t.Error("x not marked at the return: the branch's mark was lost at the join")
	}
}

// TestForwardLoop checks the loop fixpoint: y only picks up x's mark on the
// second trip through the body, over the back edge.
func TestForwardLoop(t *testing.T) {
	if !returnMarked(t, `package p
func f(n int) int {
	x, y := 0, 0
	for i := 0; i < n; i++ {
		y = x
		x = 1
	}
	return y
}`) {
		t.Error("y not marked at the return: the solver stopped before the loop's fixpoint")
	}
}

// TestTaintStatePropagation marks v.f at its store and checks w.f reads
// back marked via the prefix rule after w := v copies the whole struct.
func TestTaintStatePropagation(t *testing.T) {
	if !returnMarked(t, `package p
type s struct{ f, g int }
func f() int {
	var v s
	v.f = 1
	w := v
	return w.f
}`) {
		t.Error("w.f not marked: struct-copy prefix propagation failed")
	}
}

func TestKeyOf(t *testing.T) {
	_, info, fd := parseFunc(t, `package p
type s struct{ f int }
func f(p *s) {
	x := 1
	_ = x
	_ = p.f
	_ = x + 1
}`, "f")
	var sels []*ast.SelectorExpr
	var binops []*ast.BinaryExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sels = append(sels, n)
		case *ast.BinaryExpr:
			binops = append(binops, n)
		}
		return true
	})
	if len(sels) != 1 {
		t.Fatalf("got %d selectors", len(sels))
	}
	k, ok := KeyOf(info, sels[0])
	if !ok || k.Path != ".f" || k.Obj.Name() != "p" {
		t.Errorf("KeyOf(p.f) = %+v, %v; want obj p path .f", k, ok)
	}
	if len(binops) != 1 {
		t.Fatalf("got %d binops", len(binops))
	}
	if _, ok := KeyOf(info, binops[0]); ok {
		t.Error("KeyOf(x+1) should not be keyable")
	}
}

// TestStateBelow: a key with no label of its own reads the label of a field
// under it, the shortest path first, then the lexically first; a sibling
// whose name merely extends the key's is not under it.
func TestStateBelow(t *testing.T) {
	_, info, fd := parseFunc(t, `package p
type inner struct{ c int }
type s struct {
	a, b inner
	ab   int
}
func f(v s) {
	_ = v
	_ = v.a
}`, "f")
	var v, va ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			va = n
			return false
		case *ast.Ident:
			if n.Name == "v" && v == nil {
				v = n
			}
		}
		return true
	})
	k, _ := KeyOf(info, v)
	s := State[string]{
		{Obj: k.Obj, Path: ".b.c"}: "bc",
		{Obj: k.Obj, Path: ".a.c"}: "ac",
		{Obj: k.Obj, Path: ".ab"}:  "ab",
	}
	if l, ok := s.Below(info, v); !ok || l != "ab" {
		t.Errorf("Below(v) = %q, %v; want the shortest path .ab", l, ok)
	}
	delete(s, Key{Obj: k.Obj, Path: ".ab"})
	if l, ok := s.Below(info, v); !ok || l != "ac" {
		t.Errorf("Below(v) = %q, %v; want the lexically first .a.c", l, ok)
	}
	delete(s, Key{Obj: k.Obj, Path: ".a.c"})
	s[Key{Obj: k.Obj, Path: ".ab"}] = "ab"
	if l, ok := s.Below(info, va); ok {
		t.Errorf("Below(v.a) = %q with only .ab and .b.c labeled; want none", l)
	}
}
