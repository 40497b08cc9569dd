package lint

import (
	"go/ast"
	"go/types"
)

// RootObj walks selector/index/star/slice chains to the base variable: the
// object whose storage a write to the expression mutates, or nil when the
// base is not a variable. A qualified identifier (pkg.Var) resolves to the
// other package's variable, so a store into it is seen as one.
func RootObj(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return RootObj(info, e.X)
	case *ast.StarExpr:
		return RootObj(info, e.X)
	case *ast.UnaryExpr:
		return RootObj(info, e.X)
	case *ast.SelectorExpr:
		if _, ok := info.Selections[e]; !ok {
			// A qualified identifier (pkg.Var), not a field selection.
			if obj, ok := info.Uses[e.Sel].(*types.Var); ok {
				return obj
			}
			return nil
		}
		return RootObj(info, e.X)
	case *ast.IndexExpr:
		return RootObj(info, e.X)
	case *ast.SliceExpr:
		return RootObj(info, e.X)
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if _, ok := obj.(*types.Var); !ok {
			return nil
		}
		return obj
	}
	return nil
}

// IsPkgVar reports whether obj is a package-level variable of any package,
// the one being analyzed or another.
func IsPkgVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// ReferenceLike reports whether a store through a value of this type is
// visible to the caller: pointers, maps, slices, channels, interfaces.
func ReferenceLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// ExprString renders a store target or ranged expression for a diagnostic:
// the identifier path, with "[...]" for an index. Anything else reads "an
// escaping location".
func ExprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return ExprString(e.X)
	case *ast.IndexExpr:
		return ExprString(e.X) + "[...]"
	}
	return "an escaping location"
}
