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
//   - using a handle after cancelling it on some path through the same
//     function, unless the use is re-guarded by Scheduled or the variable
//     was reassigned in between.
//
// Zeroing a stored handle (x = engine.Event{}) is the sanctioned way to
// drop one and is never flagged.
package eventhandle

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"rtseed/internal/lint"
	"rtseed/internal/lint/dataflow"
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
	if waived(pass, lhs.Pos(), target.Pos()) {
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
		if waived(pass, value.Pos(), field.Pos()) {
			continue
		}
		pass.Reportf(value.Pos(), "engine.Event handle stored into struct field %q via composite literal; annotate the field //rtseed:handle-ok if every use re-checks Scheduled", field.Name())
	}
}

// waived reports whether a handle-ok directive waives a store at any of the
// positions (the store and the declaration it writes). It looks up every
// position, so each directive that would waive the finding is recorded as
// consulted, even when an earlier one already waives it.
func waived(pass *lint.Pass, positions ...token.Pos) bool {
	found := false
	for _, pos := range positions {
		if pass.Waived(pos, lint.DirHandleOK) {
			found = true
		}
	}
	return found
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

// cancelled is the use-after-Cancel state: the handle variables that some
// path to this point has cancelled (or freed) without a later reassignment
// or Scheduled re-check.
type cancelled map[*types.Var]bool

// cancelChecker applies one node's effect to the cancelled set, reporting
// uses of cancelled handles when report is set (only the post-solve replay
// reports; the solver's passes run silent).
type cancelChecker struct {
	pass   *lint.Pass
	report bool
}

// checkUseAfterCancel flags local handles used after a Cancel/Free call on
// some path through the function, without an intervening reassignment or
// Scheduled re-check. It is a forward may-analysis over the function's CFG,
// so a Cancel on a branch that returns does not taint the code after the
// branch, and a Cancel at the bottom of a loop reaches a use at its top.
func checkUseAfterCancel(pass *lint.Pass, decl *ast.FuncDecl) {
	ck := &cancelChecker{pass: pass}
	cfg := dataflow.BuildCFG(decl.Body)
	prob := dataflow.Problem[cancelled]{
		Entry: func() cancelled { return cancelled{} },
		Copy:  maps.Clone[cancelled],
		Join: func(dst, src cancelled) bool {
			changed := false
			for v := range src {
				if !dst[v] {
					dst[v] = true
					changed = true
				}
			}
			return changed
		},
		Node: ck.node,
	}
	in := dataflow.Forward(cfg, prob)
	ck.report = true
	for _, b := range cfg.Blocks {
		if state, ok := in[b]; ok {
			dataflow.Replay(b, state, prob, func(ast.Node, cancelled) {})
		}
	}
}

// node is the transfer function. A range statement's CFG node stands for
// its header only: the body has blocks of its own.
func (c *cancelChecker) node(n ast.Node, s cancelled) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		c.walk(rs.X, s)
		c.assign(s, rs.Key, rs.Value)
		return
	}
	c.walk(n, s)
}

// assign removes the handle variables among lhs from the set, since the
// assignment overwrites the cancelled handle; any other destination is
// walked as an expression.
func (c *cancelChecker) assign(s cancelled, lhs ...ast.Expr) {
	for _, e := range lhs {
		if v := c.eventVar(e); v != nil {
			delete(s, v)
		} else if e != nil {
			c.walk(e, s)
		}
	}
}

// walk applies the handle operations under n in evaluation order:
// Cancel/Free adds its handle arguments, a Scheduled selector and an
// assignment remove their handle, and any other mention of a handle in the
// set is a use.
func (c *cancelChecker) walk(n ast.Node, s cancelled) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				c.walk(rhs, s)
			}
			c.assign(s, n.Lhs...)
			return false
		case *ast.ValueSpec:
			for _, v := range n.Values {
				c.walk(v, s)
			}
			for _, name := range n.Names {
				c.assign(s, name)
			}
			return false
		case *ast.CallExpr:
			fn := c.pass.CalleeFunc(n)
			if fn == nil || fn.Name() != "Cancel" && fn.Name() != "Free" {
				return true
			}
			c.walk(n.Fun, s)
			for _, arg := range n.Args {
				if v := c.eventVar(arg); v != nil {
					s[v] = true
				} else {
					c.walk(arg, s)
				}
			}
			return false
		case *ast.SelectorExpr:
			if v := c.eventVar(n.X); v != nil && n.Sel.Name == "Scheduled" {
				delete(s, v)
				return false
			}
		case *ast.Ident:
			if v := c.eventVar(n); v != nil && s[v] && c.report && !c.pass.Waived(n.Pos(), lint.DirHandleOK) {
				c.pass.Reportf(n.Pos(), "%q used after Cancel; the handle is inert (or worse, recycled) — re-check Scheduled or reassign it first", v.Name())
			}
		}
		return true
	})
}

// eventVar resolves expr to the engine.Event variable it names, or nil when
// it is not a plain identifier of a non-field handle variable.
func (c *cancelChecker) eventVar(expr ast.Expr) *types.Var {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := c.pass.TypesInfo().ObjectOf(id).(*types.Var)
	if !ok || v.IsField() || !isEventType(v.Type()) {
		return nil
	}
	return v
}
