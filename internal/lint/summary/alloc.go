package summary

import (
	"go/ast"
	"go/token"
	"go/types"

	"rtseed/internal/lint"
	"rtseed/internal/lint/callgraph"
)

// intrinsicAlloc walks one body for allocating constructs — the structural
// subset of the noalloc analyzer's checks: make/new/append, slice and map
// literals, &composite, non-constant string concatenation, fmt calls, go
// statements, and capturing closures. Two deliberate scope cuts: argument
// subtrees of panic calls are exempt (a panic is the cold path by contract,
// the same exemption the noalloc analyzer applies), and nested literal
// bodies are skipped — their allocations belong to the literal's own node
// and propagate to callers only if the literal is actually invoked.
// Interface-boxing at call boundaries stays with the noalloc analyzer's
// per-body checks; the summary tier tracks the structural allocators.
func intrinsicAlloc(sum *Summary, n *callgraph.Node) {
	body := nodeBody(n)
	if body == nil {
		return
	}
	info := n.Pkg.TypesInfo
	set := func(what string, pos token.Pos) {
		if sum.Alloc == nil {
			sum.Alloc = &AllocWitness{What: what, Pos: pos, Func: n}
		}
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if sum.Alloc != nil {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			if capturesOutside(info, x) {
				set("closure capturing variables", x.Pos())
			}
			return false
		case *ast.GoStmt:
			set("go statement", x.Pos())
		case *ast.CallExpr:
			if isPanicCall(info, x) {
				return false
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new", "append":
						set(b.Name(), x.Pos())
					}
				}
			}
			if fn := Callee(info, x); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				set("call to fmt."+fn.Name(), x.Pos())
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[x]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					set("slice literal", x.Pos())
				case *types.Map:
					set("map literal", x.Pos())
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					set("&composite literal", x.Pos())
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := info.Types[x]; ok && tv.Value == nil && isString(tv.Type) {
					set("string concatenation", x.Pos())
				}
			}
		}
		return true
	})
}

// propagateAlloc pulls a callee's allocation witness into n over the direct
// call tiers, reporting whether n's summary changed. Callees annotated
// //rtseed:noalloc are trusted, not propagated: their contract is
// zero-allocation and any waived line inside them is a reviewed exception,
// so surfacing it again at every transitive caller would turn one reviewed
// waiver into a cascade of findings.
func propagateAlloc(s *Set, n *callgraph.Node) bool {
	sum := s.sums[n]
	if sum.Alloc != nil {
		return false
	}
	for _, e := range n.Out {
		if !directEdge(e.Kind) {
			continue
		}
		cs := s.sums[e.Callee]
		if cs == nil || cs.Alloc == nil || NoallocAnnotated(e.Callee) {
			continue
		}
		sum.Alloc = &AllocWitness{What: cs.Alloc.What, Pos: cs.Alloc.Pos, Func: cs.Alloc.Func, Via: e.Callee}
		return true
	}
	return false
}

// NoallocAnnotated reports whether the node is a declaration carrying the
// //rtseed:noalloc directive — a body whose zero-allocation contract the
// noalloc analyzer checks directly.
func NoallocAnnotated(n *callgraph.Node) bool {
	return n.Decl != nil && n.Pkg.Directives.ForDecl(n.Pkg.Fset, n.Decl, lint.DirNoalloc) != nil
}

// isPanicCall reports a direct call to the panic builtin.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// capturesOutside reports whether a literal references variables declared
// outside its own bounds (other than package-level ones) — the closures the
// compiler heap-allocates an environment for.
func capturesOutside(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if found {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || lint.IsPkgVar(v) {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = true
		}
		return true
	})
	return found
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
