package summary

import (
	"go/ast"
	"go/token"
	"go/types"

	"rtseed/internal/lint"
	"rtseed/internal/lint/callgraph"
	"rtseed/internal/lint/dataflow"
)

// label is the abstract value flowing through a body during summary
// computation: which nondeterminism origin (at most one — any witness is as
// good as another) and which of the function's own inputs the value may
// carry. Labels are comparable, so the lattice join can detect growth.
type label struct {
	origin    Origin
	hasOrigin bool
	params    ParamSet
}

func (l label) empty() bool { return !l.hasOrigin && l.params.Empty() }

// mergeLabel unions two labels; the first origin wins (deterministic: the
// solver visits nodes in block order).
func mergeLabel(a, b label) label {
	if !a.hasOrigin && b.hasOrigin {
		a.origin, a.hasOrigin = b.origin, true
	}
	a.params |= b.params
	return a
}

// comp computes one body's contribution to its summary. The summary is
// updated in place and only ever grows; changed records whether this run
// added anything, which drives the SCC fixpoint.
type comp struct {
	set  *Set
	node *callgraph.Node
	info *types.Info
	sum  *Summary

	// paramIdx maps the receiver and parameter objects to ParamSet indices;
	// refParam marks the reference-like ones (writes through them are
	// caller-visible).
	paramIdx map[types.Object]int
	refParam map[types.Object]bool
	// results are the named result objects, in order, for naked returns.
	results []types.Object
	// fnPos/fnEnd bound the body; objects declared outside are captured
	// from an enclosing function (or package-level, checked first).
	fnPos, fnEnd token.Pos

	changed bool
}

// computeOne runs the dataflow over n's body, folding what it learns into
// n's summary, and reports whether the summary grew.
func computeOne(s *Set, n *callgraph.Node) bool {
	body := nodeBody(n)
	if body == nil {
		return false
	}
	c := &comp{
		set:      s,
		node:     n,
		info:     n.Pkg.TypesInfo,
		sum:      s.sums[n],
		paramIdx: map[types.Object]int{},
		refParam: map[types.Object]bool{},
		fnEnd:    body.End(),
	}
	c.bind()

	cfg := dataflow.BuildCFG(body)
	prob := dataflow.Problem[dataflow.State[label]]{
		Entry: func() dataflow.State[label] {
			st := dataflow.State[label]{}
			for obj, idx := range c.paramIdx {
				var p ParamSet
				p.Add(idx)
				st[dataflow.Key{Obj: obj}] = label{params: p}
			}
			return st
		},
		Copy: func(s dataflow.State[label]) dataflow.State[label] { return s.Copy() },
		Join: func(dst, src dataflow.State[label]) bool {
			// Unlike State.Merge, union the labels themselves: dropping one
			// branch's param bits would lose ReturnFromParam facts.
			changed := false
			for k, sv := range src {
				if dv, ok := dst[k]; ok {
					if m := mergeLabel(dv, sv); m != dv {
						dst[k] = m
						changed = true
					}
				} else {
					dst[k] = sv
					changed = true
				}
			}
			return changed
		},
		Node: func(n ast.Node, s dataflow.State[label]) { c.transfer(n, s) },
	}
	dataflow.Forward(cfg, prob)
	return c.changed
}

// bind assigns ParamSet indices (receiver first, then parameters, unnamed
// slots counted) and collects the named results.
func (c *comp) bind() {
	idx := 0
	addList := func(fl *ast.FieldList, ref bool) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				idx++ // unnamed input still occupies an index
				continue
			}
			for _, name := range f.Names {
				if obj := c.info.Defs[name]; obj != nil {
					c.paramIdx[obj] = idx
					if ref && lint.ReferenceLike(obj.Type()) {
						c.refParam[obj] = true
					}
				}
				idx++
			}
		}
	}
	var fnType *ast.FuncType
	if c.node.Decl != nil {
		addList(c.node.Decl.Recv, true)
		fnType = c.node.Decl.Type
	} else {
		fnType = c.node.Lit.Type
	}
	c.fnPos = fnType.Pos()
	addList(fnType.Params, true)
	if fnType.Results != nil {
		for _, f := range fnType.Results.List {
			for _, name := range f.Names {
				if obj := c.info.Defs[name]; obj != nil {
					c.results = append(c.results, obj)
				}
			}
		}
	}
}

// Summary mutators — each reports growth into c.changed.

func (c *comp) escape(l label) {
	if c.sum.ParamEscapes.Union(l.params) {
		c.changed = true
	}
}

func (c *comp) addParamWrite(idx int) {
	if c.sum.ParamWrites.Add(idx) {
		c.changed = true
	}
}

func (c *comp) addGlobalWrite(obj types.Object, w *WriteWitness) {
	if _, ok := c.sum.GlobalWrites[obj]; ok {
		return
	}
	c.sum.GlobalWrites[obj] = w
	c.changed = true
}

func (c *comp) addCapturedWrite(obj types.Object, w *WriteWitness) {
	if _, ok := c.sum.CapturedWrites[obj]; ok {
		return
	}
	c.sum.CapturedWrites[obj] = w
	c.changed = true
}

func (c *comp) addReturn(l label) {
	if c.sum.ReturnFromParam.Union(l.params) {
		c.changed = true
	}
	if l.hasOrigin && !c.sum.rtSeen[l.origin.key()] {
		c.sum.rtSeen[l.origin.key()] = true
		c.sum.ReturnTaint = append(c.sum.ReturnTaint, l.origin)
		c.changed = true
	}
}

// transfer applies one CFG node's effect to the state, recording summary
// facts along the way.
func (c *comp) transfer(n ast.Node, s dataflow.State[label]) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			// x op= y folds both operands into x, and writes x in place.
			syn := &ast.BinaryExpr{X: n.Lhs[0], OpPos: n.TokPos, Op: token.ADD, Y: n.Rhs[0]}
			c.assign(n.Lhs[0], syn, s)
			return
		}
		dataflow.ForEachAssign(n, func(lhs, rhs ast.Expr) { c.assign(lhs, rhs, s) })
	case *ast.DeclStmt:
		dataflow.ForEachAssign(n, func(lhs, rhs ast.Expr) { c.assign(lhs, rhs, s) })
	case *ast.IncDecStmt:
		// x++ writes x in place (and keeps its label).
		c.recordWrite(n.X, n.X.Pos(), nil)
	case *ast.RangeStmt:
		lbl := c.eval(n.X, s)
		for _, v := range []ast.Expr{n.Key, n.Value} {
			if v == nil {
				continue
			}
			if !lbl.empty() {
				s.Set(c.info, v, lbl)
			} else {
				s.Clear(c.info, v)
			}
		}
	case *ast.ReturnStmt:
		if len(n.Results) > 0 {
			for _, r := range n.Results {
				c.addReturn(c.eval(r, s))
			}
		} else {
			for _, obj := range c.results {
				c.addReturn(c.labelOfObj(s, obj))
			}
		}
	case *ast.SendStmt:
		c.eval(n.Chan, s)
		c.escape(c.eval(n.Value, s))
	case *ast.ExprStmt:
		c.eval(n.X, s)
	case *ast.GoStmt:
		c.callExpr(n.Call, s, true)
	case *ast.DeferStmt:
		c.eval(n.Call, s)
	case ast.Expr:
		c.eval(n, s)
	}
}

// labelOfObj unions the labels of every key rooted at obj (the object and
// its field paths), for naked returns of named results.
func (c *comp) labelOfObj(s dataflow.State[label], obj types.Object) label {
	var out label
	for k, l := range s {
		if k.Obj == obj {
			out = mergeLabel(out, l)
		}
	}
	return out
}

// assign applies one lhs = rhs binding: records the write, notes escaping
// stores of labeled values, and carries labels forward.
func (c *comp) assign(lhs, rhs ast.Expr, s dataflow.State[label]) {
	if rhs == nil {
		s.Clear(c.info, lhs)
		return
	}
	lbl := c.eval(rhs, s)
	c.recordWrite(lhs, lhs.Pos(), nil)
	if !lbl.empty() && c.storeEscapes(lhs) {
		c.escape(lbl)
	}
	if _, keyable := dataflow.KeyOf(c.info, rhs); keyable {
		s.Assign(c.info, lhs, rhs)
		return
	}
	if !lbl.empty() {
		s.Set(c.info, lhs, lbl)
	} else {
		s.Clear(c.info, lhs)
	}
}

// recordWrite classifies a write to lhs's root: package variable, write
// through a reference-like input, or captured variable. via is the callee
// performing the write for call-mediated writes, nil for direct stores.
func (c *comp) recordWrite(lhs ast.Expr, pos token.Pos, via *callgraph.Node) {
	obj := lint.RootObj(c.info, lhs)
	if obj == nil {
		return
	}
	_, plain := ast.Unparen(lhs).(*ast.Ident)
	switch {
	case lint.IsPkgVar(obj):
		c.addGlobalWrite(obj, &WriteWitness{Pos: pos, Func: c.node, Via: via})
	case hasParam(c.paramIdx, obj):
		// Rebinding the parameter name itself is local; writing through a
		// reference-like parameter mutates the caller's object.
		if !plain && c.refParam[obj] {
			c.addParamWrite(c.paramIdx[obj])
		}
	case obj.Pos() < c.fnPos || obj.Pos() > c.fnEnd:
		c.addCapturedWrite(obj, &WriteWitness{Pos: pos, Func: c.node, Via: via})
	}
}

func hasParam(m map[types.Object]int, obj types.Object) bool {
	_, ok := m[obj]
	return ok
}

// storeEscapes reports whether a store to lhs is visible after this call
// returns: package variables, locations behind reference-like inputs, and
// captured variables. Named results are not escapes here — their values
// surface at return statements as ReturnTaint/ReturnFromParam instead.
func (c *comp) storeEscapes(lhs ast.Expr) bool {
	obj := lint.RootObj(c.info, lhs)
	if obj == nil {
		return false
	}
	if lint.IsPkgVar(obj) {
		return true
	}
	if _, plain := ast.Unparen(lhs).(*ast.Ident); plain {
		return false
	}
	if c.refParam[obj] {
		return true
	}
	return obj.Pos() < c.fnPos || obj.Pos() > c.fnEnd
}

// eval computes the label of an expression, applying call effects along the
// way.
func (c *comp) eval(e ast.Expr, s dataflow.State[label]) label {
	if e == nil {
		return label{}
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.eval(e.X, s)
	case *ast.Ident:
		l, _ := s.Get(c.info, e)
		return l
	case *ast.SelectorExpr:
		if l, ok := s.Get(c.info, e); ok {
			return l
		}
		return c.eval(e.X, s)
	case *ast.CallExpr:
		return c.callExpr(e, s, false)
	case *ast.BinaryExpr:
		return mergeLabel(c.eval(e.X, s), c.eval(e.Y, s))
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return label{} // channel receive: contents unknown
		}
		return c.eval(e.X, s)
	case *ast.StarExpr:
		return c.eval(e.X, s)
	case *ast.IndexExpr:
		return mergeLabel(c.eval(e.X, s), c.eval(e.Index, s))
	case *ast.SliceExpr:
		return c.eval(e.X, s)
	case *ast.CompositeLit:
		var out label
		for _, el := range e.Elts {
			out = mergeLabel(out, c.eval(el, s))
		}
		return out
	case *ast.KeyValueExpr:
		return c.eval(e.Value, s)
	case *ast.TypeAssertExpr:
		return c.eval(e.X, s)
	case *ast.FuncLit:
		return label{} // its own node carries its summary
	}
	return label{}
}

// callExpr applies a call's effects and computes its result label. spawned
// marks go-statement calls: their arguments outlive the caller's frame.
func (c *comp) callExpr(e *ast.CallExpr, s dataflow.State[label], spawned bool) label {
	if kind, what, ok := Source(c.info, e); ok {
		for _, a := range e.Args {
			c.eval(a, s)
		}
		return label{
			origin:    Origin{Kind: kind, What: what, Pos: e.Pos(), Func: c.node},
			hasOrigin: true,
		}
	}

	callee, args := c.set.ResolveCall(c.info, e)
	if callee != nil {
		albls := make([]label, len(args))
		for i, a := range args {
			albls[i] = c.eval(a, s)
		}
		for i, a := range args {
			pidx := callee.ArgIndex(i)
			if callee.ParamEscapes.Has(pidx) || spawned {
				c.escape(albls[i])
			}
			if callee.ParamWrites.Has(pidx) {
				c.recordWrite(a, a.Pos(), callee.Node)
			}
		}
		for obj, w := range callee.GlobalWrites {
			c.addGlobalWrite(obj, &WriteWitness{Pos: w.Pos, Func: w.Func, Via: callee.Node})
		}
		for obj, w := range callee.CapturedWrites {
			// A nested literal writing one of *my* locals is a local effect;
			// writing one of my reference-like parameters is a param write,
			// and anything captured from further out propagates up as-is.
			switch {
			case hasParam(c.paramIdx, obj):
				if c.refParam[obj] {
					c.addParamWrite(c.paramIdx[obj])
				}
			case obj.Pos() < c.fnPos || obj.Pos() > c.fnEnd:
				c.addCapturedWrite(obj, &WriteWitness{Pos: w.Pos, Func: w.Func, Via: callee.Node})
			}
		}
		var out label
		if len(callee.ReturnTaint) > 0 {
			o := callee.ReturnTaint[0]
			o.Via = callee.Node
			out = label{origin: o, hasOrigin: true}
		}
		for i := range args {
			if callee.ReturnFromParam.Has(callee.ArgIndex(i)) {
				out = mergeLabel(out, albls[i])
			}
		}
		return out
	}

	// Unresolved (builtin, conversion, out-of-set body, interface or
	// func-value call): the conservative rule — receiver and argument
	// labels flow to the result; a spawned call makes them escape.
	var out label
	if se, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
		out = mergeLabel(out, c.eval(se.X, s))
	}
	for _, a := range e.Args {
		out = mergeLabel(out, c.eval(a, s))
	}
	if spawned {
		c.escape(out)
	}
	return out
}
