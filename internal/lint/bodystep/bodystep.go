// Package bodystep implements the continuation-protocol analyzer for
// kernel.Body implementations.
//
// The kernel hands each Body.Step a *kernel.TCB and a kernel.Resume that are
// valid only for the duration of that one Step call: the TCB is the
// thread's live kernel view and the Resume is a stack value describing the
// previous action. Step returns exactly one action (a kernel.Next built by
// an action constructor). The analyzer enforces two rules over every
// continuation function (any function or literal whose results include
// kernel.Next, outside the kernel package itself):
//
//   - Retention: the step's *kernel.TCB and kernel.Resume must not outlive
//     the call. A taint pass over the function's CFG seeds every TCB- and
//     Resume-typed variable, propagates through locals, struct fields, and
//     composite literals, and flags stores to package variables, stores
//     through reference-like parameters or captured variables, channel
//     sends, goroutine hand-offs, and escaping closures that capture one.
//   - Exactly one action: every return path of a function returning exactly
//     one kernel.Next must yield a constructed action. A may-zero dataflow
//     pass tracks zero Next values (kernel.Next{}, bare var declarations)
//     to the returns that can observe them — the kernel panics on a zero
//     Next, so this turns a runtime crash into a vet finding. Functions
//     returning (kernel.Next, bool) are exempt: that is the StepOptional
//     protocol, where done=true legitimizes an unexecuted zero Next.
//
// A body cannot block inside Step: the TCB offers only read-only methods
// (Thread, Now, HWThread, AlarmMasked, AlarmPending), so every kernel
// primitive is a returned action and the compiler enforces the rest.
//
// Findings are waived with //rtseed:bodystep-ok <reason>, audited for
// staleness by the waiverdrift analyzer like every other waiver.
package bodystep

import (
	"go/ast"
	"go/token"
	"go/types"

	"rtseed/internal/lint"
	"rtseed/internal/lint/dataflow"
)

// Analyzer is the continuation-protocol checker.
var Analyzer = &lint.Analyzer{
	Name: "bodystep",
	Doc: "check the kernel.Body continuation protocol\n\n" +
		"In every continuation function (one whose results include kernel.Next):\n" +
		"the step's *kernel.TCB and kernel.Resume must not be stored where they\n" +
		"outlive the call, and every return path must yield a constructed action\n" +
		"(never the zero kernel.Next). Waive with //rtseed:bodystep-ok <reason>.",
	// The kernel implements the protocol; clients follow it.
	AppliesTo: func(importPath string) bool { return importPath != kernelPath },
	Run:       run,
}

const kernelPath = "rtseed/internal/kernel"

func run(pass *lint.Pass) error {
	for _, file := range pass.Pkg.Syntax {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			checkFunc(pass, decl, declSig(pass, decl), decl.Body)
			// Function literals have their own control flow; each is
			// analyzed independently (captured TCB/Resume variables are
			// re-seeded from the literal's body).
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					sig, _ := pass.TypesInfo().Types[lit].Type.(*types.Signature)
					checkFunc(pass, decl, sig, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// declSig resolves a declaration's signature, nil when type checking failed.
func declSig(pass *lint.Pass, decl *ast.FuncDecl) *types.Signature {
	fn, _ := pass.TypesInfo().Defs[decl.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig
}

// resultsHaveNext reports whether any result of sig is kernel.Next — the
// signature-level definition of a continuation function.
func resultsHaveNext(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isNext(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// checkFunc applies the per-function rules (retention, exactly-one-action)
// to one continuation body.
func checkFunc(pass *lint.Pass, decl *ast.FuncDecl, sig *types.Signature, body *ast.BlockStmt) {
	if !resultsHaveNext(sig) {
		return
	}
	checkRetention(pass, decl, sig, body)
	if sig.Results().Len() == 1 {
		checkZeroNext(pass, decl, sig, body)
	}
}

// namedKernelType reports whether t is the named kernel type of that name.
func namedKernelType(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == kernelPath
}

func isNext(t types.Type) bool { return namedKernelType(t, "Next") }

// handleDesc names t when it is one of the per-step handle types the
// retention rule protects, or "" otherwise.
func handleDesc(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok && namedKernelType(p.Elem(), "TCB") {
		return "step's *kernel.TCB"
	}
	if namedKernelType(t, "TCB") {
		return "step's *kernel.TCB"
	}
	if namedKernelType(t, "Resume") {
		return "step's kernel.Resume"
	}
	return ""
}

// taint records which handle a value is (or contains) and where it entered.
type taint struct {
	what string
	pos  token.Pos
}

// retention is the taint checker for the per-step handles.
type retention struct {
	pass   *lint.Pass
	decl   *ast.FuncDecl // enclosing declaration, for function-scope waivers
	report bool
	seen   map[token.Pos]bool

	// handles are every TCB/Resume-typed variable the body mentions — a
	// value of one of those types inside a continuation IS the step's
	// handle, wherever it came from, so seeding is type-based rather than
	// parameter-based (this also catches handles captured from an enclosing
	// continuation). paramObjs are reference-like parameters and receivers:
	// a store through one escapes to the caller. fnPos/fnEnd bound the
	// function; stores through objects declared outside it escape too.
	handles   map[types.Object]taint
	paramObjs map[types.Object]bool
	fnPos     token.Pos
	fnEnd     token.Pos
}

func checkRetention(pass *lint.Pass, decl *ast.FuncDecl, sig *types.Signature, body *ast.BlockStmt) {
	info := pass.TypesInfo()
	ck := &retention{
		pass:      pass,
		decl:      decl,
		handles:   map[types.Object]taint{},
		paramObjs: map[types.Object]bool{},
		fnPos:     body.Pos(),
		fnEnd:     body.End(),
	}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.ObjectOf(id).(*types.Var)
		if !ok || obj.IsField() {
			return true
		}
		if what := handleDesc(obj.Type()); what != "" {
			ck.handles[obj] = taint{what: what, pos: obj.Pos()}
		}
		return true
	})
	bindRef := func(v *types.Var) {
		if v != nil && lint.ReferenceLike(v.Type()) {
			ck.paramObjs[v] = true
		}
	}
	bindRef(sig.Recv())
	for i := 0; i < sig.Params().Len(); i++ {
		bindRef(sig.Params().At(i))
	}
	if len(ck.handles) == 0 {
		return
	}

	cfg := dataflow.BuildCFG(body)
	prob := dataflow.Problem[dataflow.State[taint]]{
		Entry: func() dataflow.State[taint] {
			s := dataflow.State[taint]{}
			for obj, t := range ck.handles {
				s[dataflow.Key{Obj: obj}] = t
			}
			return s
		},
		Copy: func(s dataflow.State[taint]) dataflow.State[taint] { return s.Copy() },
		Join: func(dst, src dataflow.State[taint]) bool { return dst.Merge(src) },
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

func (c *retention) info() *types.Info { return c.pass.TypesInfo() }

func (c *retention) transfer(n ast.Node, s dataflow.State[taint]) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		dataflow.ForEachAssign(n, func(lhs, rhs ast.Expr) { c.assign(lhs, rhs, s) })
	case *ast.DeclStmt:
		dataflow.ForEachAssign(n, func(lhs, rhs ast.Expr) { c.assign(lhs, rhs, s) })
	case *ast.SendStmt:
		if t, ok := c.eval(n.Value, s); ok {
			c.flag(n.Value.Pos(), t, "is sent on a channel")
		}
	case *ast.GoStmt:
		if t, ok := c.eval(n.Call.Fun, s); ok {
			c.flag(n.Call.Fun.Pos(), t, "is handed to a new goroutine")
		}
		for _, arg := range n.Call.Args {
			if t, ok := c.eval(arg, s); ok {
				c.flag(arg.Pos(), t, "is handed to a new goroutine")
			}
		}
	}
	// Passing a handle to an ordinary call is the normal helper pattern,
	// returning one hands it back within the same step, and a defer runs
	// before the returned action executes — none of those are sinks.
}

// assign applies one lhs = rhs binding: escaping stores of a handle are
// sinks, keyable locations carry the handle taint forward.
func (c *retention) assign(lhs, rhs ast.Expr, s dataflow.State[taint]) {
	info := c.info()
	if rhs == nil {
		return // bare declaration: handle-typed objects are already seeded
	}
	t, tainted := c.eval(rhs, s)
	if tainted && c.escapes(lhs) {
		c.flag(lhs.Pos(), t, "is stored in "+lint.ExprString(lhs)+", which outlives the step")
	}
	if tainted {
		s.Set(info, lhs, t)
	} else {
		s.Clear(info, lhs)
	}
}

// eval decides whether an expression is (or contains) one of the step's
// handles. Unlike value taint, identity does not survive a field read —
// r.Completed is a plain bool — so there is no prefix fallback; instead an
// aggregate is tainted when any key at or below it is.
func (c *retention) eval(e ast.Expr, s dataflow.State[taint]) (taint, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.eval(e.X, s)
	case *ast.StarExpr:
		return c.eval(e.X, s)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.eval(e.X, s)
		}
	case *ast.Ident, *ast.SelectorExpr:
		if k, ok := dataflow.KeyOf(c.info(), e); ok {
			return lookupAt(s, k)
		}
	case *ast.IndexExpr:
		return c.eval(e.X, s) // an element read of a tainted container
	case *ast.SliceExpr:
		return c.eval(e.X, s)
	case *ast.TypeAssertExpr:
		return c.eval(e.X, s)
	case *ast.KeyValueExpr:
		return c.eval(e.Value, s)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if t, ok := c.eval(el, s); ok {
				return t, true
			}
		}
	case *ast.FuncLit:
		// A closure is tainted when it captures a handle; where it then
		// flows decides whether that capture escapes the step.
		info := c.info()
		var found taint
		ok := false
		ast.Inspect(e.Body, func(n ast.Node) bool {
			id, isIdent := n.(*ast.Ident)
			if !isIdent || ok {
				return !ok
			}
			if t, captured := c.handles[info.ObjectOf(id)]; captured {
				found = taint{what: "closure capturing the " + t.what, pos: e.Pos()}
				ok = true
			}
			return true
		})
		return found, ok
	}
	return taint{}, false
}

// lookupAt finds a taint at k or on any key below it (a struct holding a
// tainted field is itself a retention vehicle).
func lookupAt(s dataflow.State[taint], k dataflow.Key) (taint, bool) {
	if t, ok := s[k]; ok {
		return t, true
	}
	for other, t := range s {
		if other.Obj == k.Obj && len(other.Path) > len(k.Path) &&
			other.Path[:len(k.Path)] == k.Path && other.Path[len(k.Path)] == '.' {
			return t, true
		}
	}
	return taint{}, false
}

// escapes reports whether a store to lhs outlives the step: package
// variables, and fields or elements reached through reference-like
// parameters, receivers, or captured variables. A plain local (including a
// named result — returning a handle to the caller stays within the step)
// does not.
func (c *retention) escapes(lhs ast.Expr) bool {
	obj := lint.RootObj(c.info(), lhs)
	if obj == nil {
		return false
	}
	if lint.IsPkgVar(obj) {
		return true // package-level variable, of this package or another
	}
	if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
		return false // a plain local copy stays within the step
	}
	if c.paramObjs[obj] {
		return true // store through a reference-like parameter or receiver
	}
	// Captured from an enclosing function (or otherwise non-local).
	return obj.Pos() < c.fnPos || obj.Pos() > c.fnEnd
}

func (c *retention) flag(pos token.Pos, t taint, how string) {
	if !c.report || c.seen[pos] {
		return
	}
	c.seen[pos] = true
	if c.pass.WaivedIn(c.decl, pos, lint.DirBodyStepOK) {
		return
	}
	c.pass.Reportf(pos, "the %s %s; the kernel owns it only for the duration of one Step call (//rtseed:bodystep-ok <reason> to waive)",
		t.what, how)
}

// zeroNext is the may-zero checker: a key is present in the state exactly
// when that location may hold the zero kernel.Next, so the union join makes
// "zero on any path" reach the return.
type zeroNext struct {
	pass      *lint.Pass
	decl      *ast.FuncDecl
	report    bool
	seen      map[token.Pos]bool
	resultObj types.Object // the named single result, when there is one
}

func checkZeroNext(pass *lint.Pass, decl *ast.FuncDecl, sig *types.Signature, body *ast.BlockStmt) {
	ck := &zeroNext{pass: pass, decl: decl}
	if res := sig.Results().At(0); res.Name() != "" {
		ck.resultObj = res
	}
	cfg := dataflow.BuildCFG(body)
	prob := dataflow.Problem[dataflow.State[bool]]{
		Entry: func() dataflow.State[bool] {
			s := dataflow.State[bool]{}
			if ck.resultObj != nil {
				s[dataflow.Key{Obj: ck.resultObj}] = true // zero until assigned
			}
			return s
		},
		Copy: func(s dataflow.State[bool]) dataflow.State[bool] { return s.Copy() },
		Join: func(dst, src dataflow.State[bool]) bool { return dst.Merge(src) },
		Node: func(n ast.Node, s dataflow.State[bool]) { ck.transfer(n, s) },
	}
	in := dataflow.Forward(cfg, prob)
	reportCk := *ck
	reportCk.report = true
	reportCk.seen = map[token.Pos]bool{}
	reportProb := prob
	reportProb.Node = func(n ast.Node, s dataflow.State[bool]) { reportCk.transfer(n, s) }
	for _, b := range cfg.Blocks {
		state, ok := in[b]
		if !ok {
			continue
		}
		dataflow.Replay(b, state, reportProb, func(ast.Node, dataflow.State[bool]) {})
	}
}

func (c *zeroNext) transfer(n ast.Node, s dataflow.State[bool]) {
	info := c.pass.TypesInfo()
	switch n := n.(type) {
	case *ast.AssignStmt, *ast.DeclStmt:
		dataflow.ForEachAssign(n, func(lhs, rhs ast.Expr) {
			if c.maybeZero(lhs, rhs, s) {
				s.Set(info, lhs, true)
			} else {
				s.Clear(info, lhs)
			}
		})
	case *ast.ReturnStmt:
		switch {
		case len(n.Results) == 1:
			if c.evalZero(n.Results[0], s) {
				c.flag(n.Results[0].Pos())
			}
		case len(n.Results) == 0 && c.resultObj != nil:
			if _, zero := s[dataflow.Key{Obj: c.resultObj}]; zero {
				c.flag(n.Pos())
			}
		}
	}
}

// maybeZero decides whether the assignment lhs = rhs can leave lhs holding
// the zero kernel.Next. A nil rhs is a bare declaration, zero when the type
// is Next.
func (c *zeroNext) maybeZero(lhs, rhs ast.Expr, s dataflow.State[bool]) bool {
	info := c.pass.TypesInfo()
	if rhs == nil {
		return isNext(info.TypeOf(lhs))
	}
	return c.evalZero(rhs, s)
}

// evalZero reports whether an expression may evaluate to the zero
// kernel.Next: the empty composite literal, or a location a zero value
// reached. Calls count as constructed — the callee is checked on its own.
func (c *zeroNext) evalZero(e ast.Expr, s dataflow.State[bool]) bool {
	info := c.pass.TypesInfo()
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.evalZero(e.X, s)
	case *ast.CompositeLit:
		return isNext(info.TypeOf(e)) && len(e.Elts) == 0
	case *ast.Ident, *ast.SelectorExpr:
		zero, ok := s.Get(info, e)
		return ok && zero
	}
	return false
}

func (c *zeroNext) flag(pos token.Pos) {
	if !c.report || c.seen[pos] {
		return
	}
	c.seen[pos] = true
	if c.pass.WaivedIn(c.decl, pos, lint.DirBodyStepOK) {
		return
	}
	c.pass.Reportf(pos, "this path may return the zero kernel.Next, which the kernel rejects; every path through a continuation returns exactly one action constructor (kernel.Compute, ..., kernel.Done) (//rtseed:bodystep-ok <reason> to waive)")
}
