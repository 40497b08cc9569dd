// Package detflow enforces the determinism contract in the simulation
// packages: a run must be a pure function of its seed. It has two rules.
//
// The call-site rule flags calls that are wrong wherever their values go:
// blocking on or arming a host timer (time.Sleep, time.NewTimer, ...),
// drawing from the process-global math/rand source, seeding a rand
// constructor from the wall clock, and reading the environment.
//
// The taint rule flags a nondeterministic value only when it actually
// reaches a sink — when the run's output stops being a pure function of its
// seed — so code whose clock values never escape (busy-wait loops, local
// latency probes) needs no waiver:
//
//   - sources: wall-clock reads (time.Now/Since/Until), the process-global
//     math/rand source, environment reads (os.Getenv and friends), and the
//     iteration order of a map range;
//   - propagation: assignments, arithmetic, composite literals, calls with
//     tainted arguments or receivers — the CFG + worklist solver from
//     internal/lint/dataflow carries taint through locals and struct
//     fields, and a struct with a tainted field is tainted as a whole, so
//     laundering is visible; calls the call graph resolves use
//     the callee's function summary (internal/lint/summary) instead of the
//     conservative any-argument rule, so taint crossing function frames —
//     a time.Now() laundered through a helper's return value, an argument
//     a callee stores escapingly — is tracked too, and the finding names
//     the call path it travelled;
//   - sinks: returned values, stores that outlive the call (package
//     variables, named results, fields reached through pointer parameters
//     or captured variables), channel sends, arguments to
//     rtseed/internal/trace calls, and arguments handed to a callee whose
//     summary stores them beyond the call.
//
// Two deliberate imprecisions keep the signal usable: map-iteration-order
// taint does not survive binary arithmetic (order-insensitive reductions —
// sums, min/max, counts — are the common benign pattern), and a call into
// package sort or slices clears map-order taint from its argument, because
// sorting re-establishes a deterministic order. Findings are waived with
// //rtseed:nondeterministic-ok <reason>, which waives the call-site rule
// too — one escape hatch per contract. A call that breaks both rules (a
// global rand draw that is returned) carries one finding from each.
package detflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"rtseed/internal/lint"
	"rtseed/internal/lint/callgraph"
	"rtseed/internal/lint/dataflow"
	"rtseed/internal/lint/summary"
)

// Analyzer is the determinism checker. It is a module analyzer so it can
// consult whole-module function summaries; it reports on the packages of
// lint.SimScopePackages.
var Analyzer = &lint.Analyzer{
	Name: "detflow",
	Doc: "flag host-timer, global-rand and env calls, and nondeterministic values\n" +
		"that reach results, traces, or escaping stores\n\n" +
		"Flags time.Sleep and the other host-timer calls, global math/rand\n" +
		"draws, wall-clock-seeded rand constructors, and env reads at the call.\n" +
		"Taint-tracks wall-clock reads, global math/rand, env reads, and map\n" +
		"iteration order through each function's CFG and, via whole-module\n" +
		"function summaries, across call frames; a finding fires only when the\n" +
		"tainted value is returned, stored where it outlives the call, sent on\n" +
		"a channel, or emitted to the trace. Waive with\n" +
		"//rtseed:nondeterministic-ok <reason>.",
	RunModule: run,
}

// Taint kinds, shared with the summary tier (one source table for both).
const (
	kindWallClock = summary.KindWallClock
	kindRand      = summary.KindRand
	kindEnv       = summary.KindEnv
	kindMapOrder  = "map-iteration-ordered"
)

const tracePkg = "rtseed/internal/trace"

// inScope reports whether detflow reports on importPath: the shared
// determinism scope, plus fixture packages so the analyzer is testable.
func inScope(importPath string) bool {
	return lint.InSimScope(importPath) || strings.HasPrefix(importPath, "rtseed/fixture/")
}

// taint records where a nondeterministic value came from.
type taint struct {
	kind string    // one of the kind* constants
	what string    // source description, e.g. "time.Now"
	pos  token.Pos // the source expression's position
	// entry and origin are set when the taint arrived through a summarized
	// callee's return value: entry is that callee and origin the summary
	// record, so flag can reconstruct the call path for the message.
	entry  *callgraph.Node
	origin summary.Origin
}

func run(mp *lint.ModulePass) error {
	sums := summary.Shared(mp)
	for _, pkg := range mp.Pkgs {
		if !inScope(pkg.ImportPath) {
			continue
		}
		pass := mp.PackagePass(pkg)
		checkCalls(pass)
		runPkg(pass, sums)
	}
	return nil
}

func runPkg(pass *lint.Pass, sums *summary.Set) {
	for _, file := range pass.Pkg.Syntax {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			analyzeFunc(pass, sums, decl, decl.Recv, decl.Type, decl.Body)
			// Function literals have their own control flow; analyze each
			// independently. Captured variables count as escaping roots but
			// carry no taint in (taint entering through a call is the
			// summary tier's business).
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					analyzeFunc(pass, sums, decl, nil, lit.Type, lit.Body)
				}
				return true
			})
		}
	}
}

// checker evaluates expressions against a taint state, optionally reporting
// findings (only the post-solve replay reports; solver passes run silent).
type checker struct {
	pass   *lint.Pass
	sums   *summary.Set
	decl   *ast.FuncDecl // enclosing declaration, for function-scope waivers
	report bool
	seen   map[token.Pos]bool

	// paramObjs are reference-like parameters and receivers: a store through
	// one escapes to the caller. resultObjs are named results: any store
	// escapes. fnPos/fnEnd bound the function; objects declared outside it
	// are captured or global, and stores through them escape too.
	paramObjs  map[types.Object]bool
	resultObjs map[types.Object]bool
	fnPos      token.Pos
	fnEnd      token.Pos
}

func analyzeFunc(pass *lint.Pass, sums *summary.Set, decl *ast.FuncDecl, recv *ast.FieldList, fnType *ast.FuncType, body *ast.BlockStmt) {
	ck := &checker{
		pass:       pass,
		sums:       sums,
		decl:       decl,
		paramObjs:  map[types.Object]bool{},
		resultObjs: map[types.Object]bool{},
		fnPos:      fnType.Pos(),
		fnEnd:      body.End(),
	}
	info := pass.TypesInfo()
	bind := func(fl *ast.FieldList, into map[types.Object]bool, refOnly bool) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				if refOnly && !lint.ReferenceLike(obj.Type()) {
					continue
				}
				into[obj] = true
			}
		}
	}
	bind(recv, ck.paramObjs, true)
	bind(fnType.Params, ck.paramObjs, true)
	bind(fnType.Results, ck.resultObjs, false)

	cfg := dataflow.BuildCFG(body)
	prob := dataflow.Problem[dataflow.State[taint]]{
		Entry: func() dataflow.State[taint] { return dataflow.State[taint]{} },
		Copy:  func(s dataflow.State[taint]) dataflow.State[taint] { return s.Copy() },
		Join: func(dst, src dataflow.State[taint]) bool {
			return dst.Merge(src) // may-analysis: union, any witness wins
		},
		Node: func(n ast.Node, s dataflow.State[taint]) { ck.transfer(n, s) },
	}
	in := dataflow.Forward(cfg, prob)
	reportCk := *ck
	reportCk.report = true
	reportCk.seen = map[token.Pos]bool{}
	reportProb := prob
	reportProb.Node = func(n ast.Node, s dataflow.State[taint]) { reportCk.transfer(n, s) }
	for _, b := range cfg.Blocks {
		state, ok := in[b]
		if !ok {
			continue
		}
		dataflow.Replay(b, state, reportProb, func(ast.Node, dataflow.State[taint]) {})
	}
}

func (c *checker) info() *types.Info { return c.pass.TypesInfo() }

// transfer applies one node's effect to the state, checking sinks along the
// way when report is set.
func (c *checker) transfer(n ast.Node, s dataflow.State[taint]) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			// x op= y folds values; map-order taint does not survive the
			// arithmetic (see the package doc), other kinds do.
			syn := &ast.BinaryExpr{X: n.Lhs[0], OpPos: n.TokPos, Op: token.ADD, Y: n.Rhs[0]}
			c.assign(n.Lhs[0], syn, s)
			return
		}
		dataflow.ForEachAssign(n, func(lhs, rhs ast.Expr) { c.assign(lhs, rhs, s) })
	case *ast.DeclStmt:
		dataflow.ForEachAssign(n, func(lhs, rhs ast.Expr) { c.assign(lhs, rhs, s) })
	case *ast.RangeStmt:
		c.rangeStmt(n, s)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if t, ok := c.eval(r, s); ok {
				c.flag(r.Pos(), t, "is returned to the caller")
			}
		}
	case *ast.SendStmt:
		c.eval(n.Chan, s)
		if t, ok := c.eval(n.Value, s); ok {
			c.flag(n.Value.Pos(), t, "is sent on a channel")
		}
	case *ast.ExprStmt:
		c.stmtCall(n.X, s)
	case *ast.GoStmt:
		c.stmtCall(n.Call, s)
	case *ast.DeferStmt:
		c.stmtCall(n.Call, s)
	case *ast.IncDecStmt:
		// x++ keeps x's taint.
	case ast.Expr:
		// Control expressions attached by the CFG builder (conditions,
		// switch tags): sources evaluated here stay local unless assigned.
		c.eval(n, s)
	}
}

// rangeStmt handles `for k, v := range x`: a map range taints its iteration
// variables with map order; ranging over an already-tainted container
// propagates that taint instead.
func (c *checker) rangeStmt(n *ast.RangeStmt, s dataflow.State[taint]) {
	info := c.info()
	var t taint
	tainted := false
	if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			t = taint{kind: kindMapOrder, what: "iteration over " + lint.ExprString(n.X), pos: n.Pos()}
			tainted = true
		}
	}
	if !tainted {
		t, tainted = c.eval(n.X, s)
	}
	for _, v := range []ast.Expr{n.Key, n.Value} {
		if v == nil {
			continue
		}
		if tainted {
			s.Set(info, v, t)
		} else {
			s.Clear(info, v)
		}
	}
}

// assign applies one lhs = rhs binding: escaping stores are sinks, keyable
// locations carry taint forward.
func (c *checker) assign(lhs, rhs ast.Expr, s dataflow.State[taint]) {
	info := c.info()
	if rhs == nil {
		s.Clear(info, lhs)
		return
	}
	t, tainted := c.eval(rhs, s)
	if tainted && c.escapes(lhs) {
		c.flag(lhs.Pos(), t, "is stored in "+lint.ExprString(lhs)+", which outlives this call")
	}
	if _, keyable := dataflow.KeyOf(info, rhs); keyable {
		s.Assign(info, lhs, rhs)
		return
	}
	if tainted {
		s.Set(info, lhs, t)
	} else {
		s.Clear(info, lhs)
	}
}

// escapes reports whether a store to lhs is visible outside this function
// call: package variables, named results, and fields or elements reached
// through reference-like parameters or captured variables.
func (c *checker) escapes(lhs ast.Expr) bool {
	obj := lint.RootObj(c.info(), lhs)
	if obj == nil {
		return false
	}
	if lint.IsPkgVar(obj) {
		return true // package-level variable, of this package or another
	}
	if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
		return c.resultObjs[obj] // a plain local copy stays local
	}
	if c.paramObjs[obj] || c.resultObjs[obj] {
		return true // store through a reference-like parameter
	}
	// Captured from an enclosing function (or otherwise non-local).
	return obj.Pos() < c.fnPos || obj.Pos() > c.fnEnd
}

// stmtCall handles a statement-position call: sort/slices calls sanitize
// map-order taint, everything else evaluates normally (trace sinks fire
// inside eval).
func (c *checker) stmtCall(x ast.Expr, s dataflow.State[taint]) {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		c.eval(x, s)
		return
	}
	if fn := c.pass.CalleeFunc(call); fn != nil && fn.Pkg() != nil {
		if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
			for _, arg := range call.Args {
				clearMapOrder(c.info(), s, arg)
			}
			return
		}
	}
	c.eval(call, s)
}

// clearMapOrder removes map-order taint from every key rooted at arg's
// object: sorting re-establishes a deterministic order.
func clearMapOrder(info *types.Info, s dataflow.State[taint], arg ast.Expr) {
	k, ok := dataflow.KeyOf(info, arg)
	if !ok {
		return
	}
	for key, t := range s {
		if key.Obj == k.Obj && t.kind == kindMapOrder {
			delete(s, key)
		}
	}
}

// eval computes the taint of an expression, firing trace-emission sinks on
// any call it walks through.
func (c *checker) eval(e ast.Expr, s dataflow.State[taint]) (taint, bool) {
	if e == nil {
		return taint{}, false
	}
	info := c.info()
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.eval(e.X, s)

	case *ast.Ident:
		return lookup(info, s, e)

	case *ast.SelectorExpr:
		if _, keyable := dataflow.KeyOf(info, e); keyable {
			// lookup covers x.f, its prefixes and the keys under it; x's
			// other fields do not taint x.f.
			return lookup(info, s, e)
		}
		return c.eval(e.X, s)

	case *ast.CallExpr:
		return c.call(e, s)

	case *ast.BinaryExpr:
		// Map-order taint does not survive arithmetic or comparison:
		// order-insensitive reductions (sums, min/max, counts) are the
		// common benign pattern. Other kinds propagate.
		if t, ok := c.eval(e.X, s); ok && t.kind != kindMapOrder {
			c.eval(e.Y, s)
			return t, true
		}
		if t, ok := c.eval(e.Y, s); ok && t.kind != kindMapOrder {
			return t, true
		}
		return taint{}, false

	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return taint{}, false // channel receive: contents unknown
		}
		return c.eval(e.X, s)

	case *ast.StarExpr:
		return c.eval(e.X, s)

	case *ast.IndexExpr:
		c.eval(e.Index, s)
		return c.eval(e.X, s)

	case *ast.SliceExpr:
		return c.eval(e.X, s)

	case *ast.CompositeLit:
		var found taint
		ok := false
		for _, el := range e.Elts {
			if kv, isKV := el.(*ast.KeyValueExpr); isKV {
				el = kv.Value
			}
			if t, tainted := c.eval(el, s); tainted && !ok {
				found, ok = t, true
			}
		}
		return found, ok

	case *ast.KeyValueExpr:
		return c.eval(e.Value, s)

	case *ast.TypeAssertExpr:
		return c.eval(e.X, s)

	case *ast.FuncLit:
		return taint{}, false // analyzed separately
	}
	return taint{}, false
}

// lookup returns the taint of a keyable expression: its own key's or a
// prefix's label, else the label of a field under it, so a struct value
// with one tainted field is tainted as a whole.
func lookup(info *types.Info, s dataflow.State[taint], e ast.Expr) (taint, bool) {
	if t, ok := s.Get(info, e); ok {
		return t, true
	}
	return s.Below(info, e)
}

// call evaluates a call expression: source recognition, the trace-emission
// sink, then summary-based propagation for callees the call graph resolves,
// with the conservative rule (any tainted argument or receiver taints the
// result) as the fallback for calls it cannot.
func (c *checker) call(e *ast.CallExpr, s dataflow.State[taint]) (taint, bool) {
	info := c.info()
	if kind, what, ok := summary.Source(info, e); ok {
		for _, a := range e.Args {
			c.eval(a, s)
		}
		return taint{kind: kind, what: what, pos: e.Pos()}, true
	}
	if fn := c.pass.CalleeFunc(e); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == tracePkg {
		for _, arg := range e.Args {
			if t, ok := c.eval(arg, s); ok {
				c.flag(arg.Pos(), t, "is emitted to the trace via "+fn.Name())
			}
		}
	}

	if c.sums != nil {
		if callee, args := c.sums.ResolveCall(info, e); callee != nil {
			return c.summaryCall(callee, args, s)
		}
	}

	// Conservative propagation: the receiver or any argument being tainted
	// taints the result (method calls on tainted values, append, helpers).
	var found taint
	ok := false
	if se, isSel := ast.Unparen(e.Fun).(*ast.SelectorExpr); isSel {
		if t, tainted := c.eval(se.X, s); tainted {
			found, ok = t, true
		}
	}
	for _, arg := range e.Args {
		if t, tainted := c.eval(arg, s); tainted && !ok {
			found, ok = t, true
		}
	}
	return found, ok
}

// summaryCall propagates through a resolved callee using its summary: an
// argument the callee stores beyond the call is a sink, the result carries
// the callee's return taint and whatever tainted arguments flow to its
// return value.
func (c *checker) summaryCall(callee *summary.Summary, args []ast.Expr, s dataflow.State[taint]) (taint, bool) {
	albls := make([]taint, len(args))
	aok := make([]bool, len(args))
	for i, a := range args {
		albls[i], aok[i] = c.eval(a, s)
	}
	for i, a := range args {
		if aok[i] && callee.ParamEscapes.Has(callee.ArgIndex(i)) {
			c.flag(a.Pos(), albls[i], "is stored beyond this call by "+callee.Node.Name())
		}
	}
	var out taint
	ok := false
	if len(callee.ReturnTaint) > 0 {
		o := callee.ReturnTaint[0]
		out = taint{kind: o.Kind, what: o.What, pos: o.Pos, entry: callee.Node, origin: o}
		ok = true
	}
	for i := range args {
		if !ok && aok[i] && callee.ReturnFromParam.Has(callee.ArgIndex(i)) {
			out, ok = albls[i], true
		}
	}
	return out, ok
}

func (c *checker) flag(pos token.Pos, t taint, how string) {
	if !c.report || c.seen[pos] {
		return
	}
	c.seen[pos] = true
	if c.pass.WaivedIn(c.decl, pos, lint.DirNondeterministic) {
		return
	}
	line := c.pass.Pkg.Fset.Position(t.pos).Line
	if t.entry != nil {
		path := callgraph.FormatPath(c.sums.TaintPath(t.entry, t.origin))
		c.pass.Reportf(pos, "%s value from %s (line %d, via %s) %s; a run is no longer a pure function of its seed (//rtseed:nondeterministic-ok <reason> to waive)",
			t.kind, t.what, line, path, how)
		return
	}
	c.pass.Reportf(pos, "%s value from %s (line %d) %s; a run is no longer a pure function of its seed (//rtseed:nondeterministic-ok <reason> to waive)",
		t.kind, t.what, line, how)
}
