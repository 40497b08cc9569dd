// Package eventhandle polices generation-counted engine.Event handles.
// A handle is a value snapshot of (node, generation): once the event fires
// or is cancelled the node recycles, and a held handle silently goes inert.
// Holding one across a recycle is only safe when every later use re-checks
// it (Event.Scheduled), so the analyzer flags the places where handles
// outlive a scope unchecked:
//
//   - storing a live handle into a struct field or package-level variable
//     whose declaration is not blessed with //rtseed:handle-ok <reason>;
//   - declaring a package-level engine.Event variable at all;
//   - using a handle after cancelling it in the same function, unless the
//     use is re-guarded by Scheduled or the variable was reassigned.
//
// Zeroing a stored handle (x = engine.Event{}) is the sanctioned way to
// drop one and is never flagged.
package eventhandle

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"rtseed/internal/lint"
)

// Analyzer is the event-handle discipline checker.
var Analyzer = &lint.Analyzer{
	Name: "eventhandle",
	Doc:  "flag engine.Event handles stored unchecked in fields or globals, and uses after Cancel",
	Run:  run,
}

// eventTypePath/Name identify the handle type.
const (
	eventTypePath = "rtseed/internal/engine"
	eventTypeName = "Event"
)

func isEventType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == eventTypeName && obj.Pkg() != nil && obj.Pkg().Path() == eventTypePath
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Pkg.Syntax {
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					checkGlobalDecl(pass, d)
				}
			case *ast.FuncDecl:
				if d.Body != nil {
					checkStores(pass, d)
					checkUseAfterCancel(pass, d)
				}
			}
		}
	}
	return nil
}

// checkGlobalDecl flags package-level engine.Event variables: a global
// handle outlives every recycle and invites stale cancellation.
func checkGlobalDecl(pass *lint.Pass, decl *ast.GenDecl) {
	for _, spec := range decl.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			obj, ok := pass.TypesInfo().Defs[name].(*types.Var)
			if !ok || !isEventType(obj.Type()) {
				continue
			}
			if pass.Waived(name.Pos(), lint.DirHandleOK) {
				continue
			}
			pass.Reportf(name.Pos(), "package-level engine.Event %q holds a handle across recycles; keep handles local or annotate the declaration //rtseed:handle-ok with the checking discipline", name.Name)
		}
	}
}

// checkStores flags assignments and composite literals that persist a live
// handle into a struct field or package-level variable whose declaration is
// not annotated //rtseed:handle-ok.
func checkStores(pass *lint.Pass, decl *ast.FuncDecl) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break // x, y = f() — f cannot return a live handle pair worth special-casing
				}
				checkStore(pass, lhs, n.Rhs[i])
			}
		case *ast.CompositeLit:
			checkCompositeStore(pass, n)
		}
		return true
	})
}

func checkStore(pass *lint.Pass, lhs, rhs ast.Expr) {
	if !storesLiveEvent(pass, rhs) {
		return
	}
	target := persistentTarget(pass, lhs)
	if target == nil {
		return
	}
	if pass.Waived(lhs.Pos(), lint.DirHandleOK) || pass.Waived(target.Pos(), lint.DirHandleOK) {
		return
	}
	kind := "struct field"
	if target.Parent() == target.Pkg().Scope() {
		kind = "package-level variable"
	}
	pass.Reportf(lhs.Pos(), "engine.Event handle stored into %s %q; the handle survives the event's recycle — annotate the declaration //rtseed:handle-ok if every use re-checks Scheduled", kind, target.Name())
}

func checkCompositeStore(pass *lint.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo().Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	st, ok := types.Unalias(tv.Type).Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		var field *types.Var
		var value ast.Expr
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			field, _ = pass.TypesInfo().Uses[key].(*types.Var)
			value = kv.Value
		} else if i < st.NumFields() {
			field = st.Field(i)
			value = elt
		}
		if field == nil || !isEventType(field.Type()) || !storesLiveEvent(pass, value) {
			continue
		}
		if pass.Waived(value.Pos(), lint.DirHandleOK) || pass.Waived(field.Pos(), lint.DirHandleOK) {
			continue
		}
		pass.Reportf(value.Pos(), "engine.Event handle stored into struct field %q via composite literal; annotate the field //rtseed:handle-ok if every use re-checks Scheduled", field.Name())
	}
}

// persistentTarget resolves lhs to the struct field or package-level
// variable it writes, or nil when the destination is a plain local.
func persistentTarget(pass *lint.Pass, lhs ast.Expr) *types.Var {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		sel, ok := pass.TypesInfo().Selections[lhs]
		if ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
		}
		// Qualified package-level var (pkg.Var).
		if v, ok := pass.TypesInfo().Uses[lhs.Sel].(*types.Var); ok && lint.IsPkgVar(v) {
			return v
		}
	case *ast.Ident:
		v, ok := pass.TypesInfo().Uses[lhs].(*types.Var)
		if ok && lint.IsPkgVar(v) {
			return v
		}
	}
	return nil
}

// storesLiveEvent reports whether rhs is an engine.Event expression other
// than the zero literal engine.Event{} (which clears, not holds).
func storesLiveEvent(pass *lint.Pass, rhs ast.Expr) bool {
	tv, ok := pass.TypesInfo().Types[rhs]
	if !ok || tv.Type == nil || !isEventType(tv.Type) {
		return false
	}
	if lit, ok := ast.Unparen(rhs).(*ast.CompositeLit); ok && len(lit.Elts) == 0 {
		return false
	}
	return true
}

// Event kinds for the linear use-after-cancel scan, in source order.
const (
	opUse = iota
	opCancel
	opClear // reassignment or a Scheduled() re-check
)

type handleOp struct {
	kind int
	pos  token.Pos
}

// checkUseAfterCancel walks one function and flags local handles used after
// a Cancel/Free call without an intervening reassignment or Scheduled
// re-check. The scan is linear in source order — a deliberate approximation
// that matches the straight-line cancel-then-touch bug it exists to catch.
func checkUseAfterCancel(pass *lint.Pass, decl *ast.FuncDecl) {
	info := pass.TypesInfo()
	classified := map[*ast.Ident]int{}
	ops := map[*types.Var][]handleOp{}

	eventVar := func(expr ast.Expr) (*ast.Ident, *types.Var) {
		id, ok := ast.Unparen(expr).(*ast.Ident)
		if !ok {
			return nil, nil
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || !isEventType(v.Type()) {
			return nil, nil
		}
		return id, v
	}

	// First pass: classify the idents appearing in cancels, re-checks, and
	// assignments; everything else defaults to a plain use.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := pass.CalleeFunc(n)
			if fn != nil && (fn.Name() == "Cancel" || fn.Name() == "Free") {
				for _, arg := range n.Args {
					if id, _ := eventVar(arg); id != nil {
						classified[id] = opCancel
					}
				}
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "Scheduled" {
				if id, _ := eventVar(n.X); id != nil {
					classified[id] = opClear
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, _ := eventVar(lhs); id != nil {
					classified[id] = opClear
				}
			}
		}
		return true
	})

	// Second pass: gather every handle ident with its classification.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if _, v := eventVar(id); v != nil {
			kind, ok := classified[id]
			if !ok {
				kind = opUse
			}
			ops[v] = append(ops[v], handleOp{kind: kind, pos: id.Pos()})
		}
		return true
	})

	for v, seq := range ops {
		sort.Slice(seq, func(i, j int) bool { return seq[i].pos < seq[j].pos })
		cancelled := false
		for _, op := range seq {
			switch op.kind {
			case opCancel:
				cancelled = true
			case opClear:
				cancelled = false
			case opUse:
				if cancelled && !pass.Waived(op.pos, lint.DirHandleOK) {
					pass.Reportf(op.pos, "%q used after Cancel; the handle is inert (or worse, recycled) — re-check Scheduled or reassign it first", v.Name())
					cancelled = false // one report per cancellation is enough
				}
			}
		}
	}
}
