// Package timeunits implements dimensional analysis over simulated-time
// arithmetic.
//
// The simulator works in four unit classes: absolute nanoseconds
// (engine.Time — an instant since simulation start), relative nanoseconds
// (time.Duration and module Duration newtypes), wheel ticks (virtual time
// quantized by 2^tickShift), and raw integers. The classes are declared by
// newtypes, but Go's type system cannot express their algebra: Time+Time
// compiles even though adding two instants is meaningless, and a tick count
// laundered through a uint64 assigns into a nanosecond field without
// complaint. This analyzer restores the algebra:
//
//   - adding two absolute times is flagged (instants add only with
//     durations: t.Add(d));
//   - any arithmetic or comparison mixing the tick domain with a
//     nanosecond domain is flagged;
//   - converting between unit classes outside a declared conversion helper
//     is flagged (tickOf, tick.start, Time.Add/Sub/Duration, At are the
//     sanctioned crossings — any single-argument function or method that
//     maps one unit class to another counts as a helper and its body is
//     exempt);
//   - a shift by the tickShift constant is recognized as the ns↔tick
//     conversion idiom and changes the class instead of flagging.
//
// Raw integers carry classes through dataflow: the CFG + worklist solver
// from internal/lint/dataflow propagates the class of `u := uint64(t)`
// to later uses of u, so laundering through locals is visible. Findings
// are waived with //rtseed:units-ok <reason>.
package timeunits

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"rtseed/internal/lint"
	"rtseed/internal/lint/dataflow"
)

// Analyzer is the time-unit soundness checker.
var Analyzer = &lint.Analyzer{
	Name: "timeunits",
	Doc: "dimensional analysis over simulated-time arithmetic\n\n" +
		"Classifies values as abs-ns (engine.Time), rel-ns (time.Duration),\n" +
		"tick, or raw; flags abs+abs addition, tick/ns mixing, cross-unit\n" +
		"comparisons, and conversions outside declared helpers. Waive with\n" +
		"//rtseed:units-ok <reason>.",
	AppliesTo: lint.InSimScope,
	Run:       run,
}

// Class is a unit class in the abstract domain.
type Class int

const (
	Unknown Class = iota // raw integers, everything non-temporal
	AbsNS                // an instant: nanoseconds since simulation start
	RelNS                // a duration: nanoseconds between instants
	Tick                 // virtual time quantized by 2^tickShift
)

func (c Class) String() string {
	switch c {
	case AbsNS:
		return "abs-ns"
	case RelNS:
		return "rel-ns"
	case Tick:
		return "tick"
	case Unknown:
		return "raw"
	}
	return "raw"
}

// ns reports whether the class is one of the nanosecond domains.
func (c Class) ns() bool { return c == AbsNS || c == RelNS }

// classOfType statically classifies a type. Module enums are excluded even
// when their name matches a unit newtype pattern: a named integer type with
// an iota constant block is a discrete kind, not a quantity.
func classOfType(t types.Type) Class {
	if t == nil {
		return Unknown
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return Unknown
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return Unknown
	}
	path, name := obj.Pkg().Path(), obj.Name()
	if path == "time" && name == "Duration" {
		return RelNS
	}
	if !strings.HasPrefix(path, "rtseed/") {
		return Unknown
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return Unknown
	}
	if enum, _ := lint.EnumMembers(nil, named); enum != "" {
		return Unknown
	}
	switch {
	case name == "Time":
		return AbsNS
	case name == "Duration":
		return RelNS
	case strings.EqualFold(name, "tick") || strings.HasSuffix(name, "Tick"):
		return Tick
	}
	return Unknown
}

// isConversionHelper reports whether fn is a declared unit-conversion
// helper: a module function or method with at most one parameter (plus an
// optional receiver), exactly one result, where the result and at least
// one input carry a unit class. This shape captures the sanctioned unit
// crossings — tickOf, tick.start, Time.Add/Sub/Duration, At — without
// naming them: a one-argument function whose signature maps unit to unit
// *is* a conversion. Helper bodies are exempt and their call sites take
// the signature's classes at face value. Two-parameter free functions are
// deliberately excluded: `f(a, b Time) Time` is indistinguishable by
// signature from the abs+abs mistakes this analyzer exists to catch, so
// combining helpers must be methods (`(t Time).Add(d)`).
func isConversionHelper(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), "rtseed/") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Results().Len() != 1 || classOfType(sig.Results().At(0).Type()) == Unknown {
		return false
	}
	if sig.Params().Len() > 1 {
		return false
	}
	classedInputs := 0
	if recv := sig.Recv(); recv != nil && classOfType(recv.Type()) != Unknown {
		classedInputs++
	}
	if sig.Params().Len() == 1 && classOfType(sig.Params().At(0).Type()) != Unknown {
		classedInputs++
	}
	return classedInputs >= 1
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Pkg.Syntax {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo().Defs[decl.Name].(*types.Func); ok && isConversionHelper(fn) {
				continue // helper bodies implement the conversions
			}
			analyzeFunc(pass, decl, decl.Type, decl.Body)
			// Function literals have their own scopes and control flow;
			// analyze each independently (captured raw variables start
			// unclassified — intraprocedural).
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					analyzeFunc(pass, decl, lit.Type, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// checker evaluates expressions against a dataflow state, optionally
// reporting findings (only the post-solve replay reports; the solver's
// transfer passes run silent).
type checker struct {
	pass   *lint.Pass
	decl   *ast.FuncDecl // enclosing declaration, for function-scope waivers
	report bool
	// seen deduplicates findings per position: tuple assignments evaluate
	// their shared right-hand side once per binding.
	seen map[token.Pos]bool
}

func analyzeFunc(pass *lint.Pass, decl *ast.FuncDecl, fnType *ast.FuncType, body *ast.BlockStmt) {
	cfg := dataflow.BuildCFG(body)
	solveCk := &checker{pass: pass, decl: decl}
	prob := dataflow.Problem[dataflow.State[Class]]{
		Entry: func() dataflow.State[Class] { return dataflow.State[Class]{} },
		Copy:  func(s dataflow.State[Class]) dataflow.State[Class] { return s.Copy() },
		Join: func(dst, src dataflow.State[Class]) bool {
			// Conflicting classes at a join degrade to absent (Unknown)
			// rather than flagging: a φ-conflict is not a use.
			changed := false
			for k, v := range src {
				if cur, ok := dst[k]; ok {
					if cur != v {
						delete(dst, k)
						changed = true
					}
				} else {
					dst[k] = v
					changed = true
				}
			}
			return changed
		},
		Node: func(n ast.Node, s dataflow.State[Class]) { solveCk.transfer(n, s) },
	}
	in := dataflow.Forward(cfg, prob)
	// Second pass from the fixed point, now reporting. The report pass
	// replaces the transfer function wholesale so each node is applied
	// exactly once per replay.
	reportCk := &checker{pass: pass, decl: decl, report: true, seen: map[token.Pos]bool{}}
	reportProb := prob
	reportProb.Node = func(n ast.Node, s dataflow.State[Class]) { reportCk.transfer(n, s) }
	for _, b := range cfg.Blocks {
		state, ok := in[b]
		if !ok {
			continue
		}
		dataflow.Replay(b, state, reportProb, func(ast.Node, dataflow.State[Class]) {})
	}
}

// transfer applies one node's effect to the state, checking unit rules
// along the way when report is set.
func (c *checker) transfer(n ast.Node, s dataflow.State[Class]) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if op, ok := opAssign[n.Tok]; ok && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			// x op= y is x = x op y: run the binary rules on a synthesized
			// node so t += t flags like t = t + t does.
			syn := &ast.BinaryExpr{X: n.Lhs[0], OpPos: n.TokPos, Op: op, Y: n.Rhs[0]}
			c.assign(n.Lhs[0], syn, s)
			return
		}
		dataflow.ForEachAssign(n, func(lhs, rhs ast.Expr) { c.assign(lhs, rhs, s) })
	case *ast.DeclStmt:
		dataflow.ForEachAssign(n, func(lhs, rhs ast.Expr) { c.assign(lhs, rhs, s) })
	case *ast.IncDecStmt:
		c.eval(n.X, s)
	case *ast.ExprStmt:
		c.eval(n.X, s)
	case *ast.SendStmt:
		c.eval(n.Chan, s)
		c.eval(n.Value, s)
	case *ast.GoStmt:
		c.eval(n.Call, s)
	case *ast.DeferStmt:
		c.eval(n.Call, s)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			c.eval(r, s)
		}
	case *ast.RangeStmt:
		c.eval(n.X, s)
	case ast.Expr:
		// Control expressions attached by the CFG builder (if/for
		// conditions, switch tags, case expressions).
		c.eval(n, s)
	}
}

// opAssign maps compound-assignment tokens to their binary operator.
var opAssign = map[token.Token]token.Token{
	token.ADD_ASSIGN: token.ADD, token.SUB_ASSIGN: token.SUB,
	token.MUL_ASSIGN: token.MUL, token.QUO_ASSIGN: token.QUO,
	token.REM_ASSIGN: token.REM, token.AND_ASSIGN: token.AND,
	token.OR_ASSIGN: token.OR, token.XOR_ASSIGN: token.XOR,
	token.SHL_ASSIGN: token.SHL, token.SHR_ASSIGN: token.SHR,
	token.AND_NOT_ASSIGN: token.AND_NOT,
}

// assign applies one lhs = rhs binding: typed variables are checked against
// the incoming class, raw variables carry it forward through the state.
func (c *checker) assign(lhs, rhs ast.Expr, s dataflow.State[Class]) {
	if rhs == nil {
		s.Clear(c.pass.TypesInfo(), lhs)
		return
	}
	cls := c.eval(rhs, s)
	lhsCls := classOfType(c.pass.TypesInfo().TypeOf(lhs))
	if lhsCls != Unknown {
		// The variable's declared type is authoritative; a cross-class
		// assignment without a conversion is only expressible through raw
		// laundering, which eval flags at the conversion. Still guard the
		// direct case.
		if cls != Unknown && cls != lhsCls {
			c.flagf(lhs.Pos(), "assigning a %s value to %s (%s) without a conversion",
				cls, exprString(lhs), lhsCls)
		}
		return
	}
	if cls == Unknown {
		s.Clear(c.pass.TypesInfo(), lhs)
	} else {
		s.Set(c.pass.TypesInfo(), lhs, cls)
	}
}

// eval computes the unit class of an expression, reporting violations
// found inside it. Static (declared) classes win; dataflow classes fill in
// for raw-typed expressions.
func (c *checker) eval(e ast.Expr, s dataflow.State[Class]) Class {
	if e == nil {
		return Unknown
	}
	info := c.pass.TypesInfo()
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return Unknown // constants are polymorphic across units
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.eval(e.X, s)

	case *ast.Ident, *ast.SelectorExpr:
		if cls := classOfType(info.TypeOf(e)); cls != Unknown {
			return cls
		}
		if cls, ok := s.Get(info, e); ok {
			return cls
		}
		return Unknown

	case *ast.UnaryExpr:
		inner := c.eval(e.X, s)
		switch e.Op {
		case token.SUB, token.ADD, token.XOR:
			return inner
		}
		return classOfType(info.TypeOf(e))

	case *ast.StarExpr:
		c.eval(e.X, s)
		return classOfType(info.TypeOf(e))

	case *ast.IndexExpr:
		c.eval(e.X, s)
		c.eval(e.Index, s)
		return classOfType(info.TypeOf(e))

	case *ast.BinaryExpr:
		return c.binary(e, s)

	case *ast.CallExpr:
		return c.call(e, s)

	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				c.eval(kv.Value, s)
			} else {
				c.eval(el, s)
			}
		}
		return Unknown

	case *ast.KeyValueExpr:
		c.eval(e.Value, s)
		return Unknown

	case *ast.TypeAssertExpr:
		c.eval(e.X, s)
		return classOfType(info.TypeOf(e))

	case *ast.SliceExpr:
		c.eval(e.X, s)
		return Unknown

	case *ast.FuncLit:
		// Analyzed separately with a fresh state.
		return Unknown
	}
	return classOfType(info.TypeOf(e))
}

// isTickShift reports whether a shift-amount expression names the tickShift
// constant (directly or through a selector).
func isTickShift(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name == "tickShift"
	case *ast.SelectorExpr:
		return e.Sel.Name == "tickShift"
	case *ast.CallExpr: // uint(tickShift) and friends
		if len(e.Args) == 1 {
			return isTickShift(e.Args[0])
		}
	}
	return false
}

func (c *checker) binary(e *ast.BinaryExpr, s dataflow.State[Class]) Class {
	info := c.pass.TypesInfo()
	x := c.eval(e.X, s)

	// Shifts by tickShift are the declared ns↔tick conversion idiom.
	if e.Op == token.SHR || e.Op == token.SHL {
		if isTickShift(e.Y) {
			if e.Op == token.SHR && x.ns() {
				return Tick
			}
			if e.Op == token.SHL && x == Tick {
				return AbsNS
			}
		}
		return x // other shifts stay in the operand's domain (slot math)
	}

	y := c.eval(e.Y, s)

	// Rule: the tick domain never mixes with a nanosecond domain.
	if (x == Tick && y.ns()) || (x.ns() && y == Tick) {
		c.flagf(e.OpPos, "%s mixes tick and nanosecond units (%s %s %s); convert with tickOf or tick.start first",
			opName(e.Op), x, e.Op, y)
		return Unknown
	}

	switch e.Op {
	case token.ADD:
		if x == AbsNS && y == AbsNS {
			c.flagf(e.OpPos, "adding two absolute times (abs-ns + abs-ns); an instant only advances by a duration — use t.Add(d)")
			return Unknown
		}
		if x == AbsNS || y == AbsNS {
			return AbsNS
		}
		return joinSame(x, y)
	case token.SUB:
		switch {
		case x == AbsNS && y == AbsNS:
			return RelNS // instant - instant = duration
		case x == AbsNS:
			return AbsNS
		case y == AbsNS:
			c.flagf(e.OpPos, "subtracting an absolute time from a %s value", x)
			return Unknown
		}
		return joinSame(x, y)
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		if (x == AbsNS && y == RelNS) || (x == RelNS && y == AbsNS) {
			c.flagf(e.OpPos, "comparing across units (%s %s %s); convert one side first", x, e.Op, y)
		}
		return Unknown
	case token.MUL, token.QUO, token.REM:
		// Scaling and modulo escape the dimensional algebra (a duration
		// times a count is a duration; a duration over a duration is a
		// count); Go's static type is the best answer available.
		return classOfType(info.TypeOf(e))
	}
	return Unknown
}

// joinSame merges two classes for symmetric arithmetic: equal classes keep
// the class, an Unknown side defers to the other.
func joinSame(x, y Class) Class {
	switch {
	case x == y:
		return x
	case x == Unknown:
		return y
	case y == Unknown:
		return x
	}
	return Unknown
}

func (c *checker) call(e *ast.CallExpr, s dataflow.State[Class]) Class {
	info := c.pass.TypesInfo()

	// Conversion T(x): a cross-class conversion outside a helper body is a
	// finding — that is exactly the laundering this analyzer exists for.
	if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
		to := classOfType(tv.Type)
		from := c.eval(e.Args[0], s)
		if to != Unknown && from != Unknown && to != from {
			c.flagf(e.Pos(), "conversion reinterprets %s as %s (%s) outside a conversion helper",
				from, to, exprString(e.Fun))
			return Unknown
		}
		if to != Unknown {
			return to
		}
		return from // raw conversions (uint64(t)) keep the class flowing
	}

	// Builtins have no unit semantics; evaluate arguments for findings.
	if b := c.pass.CalleeBuiltin(e); b != nil {
		for _, a := range e.Args {
			c.eval(a, s)
		}
		return Unknown
	}

	fn := c.pass.CalleeFunc(e)
	var sig *types.Signature
	if fn != nil {
		sig, _ = fn.Type().(*types.Signature)
	} else if tv, ok := info.Types[e.Fun]; ok && tv.Type != nil {
		sig, _ = tv.Type.Underlying().(*types.Signature) // dynamic call
	}

	// Check argument classes against parameter classes.
	for i, a := range e.Args {
		argCls := c.eval(a, s)
		if sig == nil || argCls == Unknown {
			continue
		}
		var param *types.Var
		if i < sig.Params().Len() {
			param = sig.Params().At(i)
		} else if sig.Variadic() && sig.Params().Len() > 0 {
			param = sig.Params().At(sig.Params().Len() - 1)
		}
		if param == nil {
			continue
		}
		pType := param.Type()
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			if sl, ok := pType.(*types.Slice); ok {
				pType = sl.Elem()
			}
		}
		if pCls := classOfType(pType); pCls != Unknown && pCls != argCls {
			name := "function"
			if fn != nil {
				name = fn.Name()
			}
			c.flagf(a.Pos(), "passing a %s value where %s expects %s", argCls, name, pCls)
		}
	}

	if sig != nil && sig.Results().Len() == 1 {
		return classOfType(sig.Results().At(0).Type())
	}
	return Unknown
}

func (c *checker) flagf(pos token.Pos, format string, args ...any) {
	if !c.report || c.seen[pos] {
		return
	}
	c.seen[pos] = true
	if c.pass.WaivedIn(c.decl, pos, lint.DirUnitsOK) {
		return
	}
	c.pass.Reportf(pos, format+" (//rtseed:units-ok <reason> to waive)", args...)
}

func opName(op token.Token) string {
	switch op {
	case token.ADD:
		return "addition"
	case token.SUB:
		return "subtraction"
	case token.REM:
		return "modulo"
	case token.AND, token.OR, token.XOR, token.AND_NOT:
		return "bitwise arithmetic"
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return "comparison"
	}
	return "arithmetic"
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "expression"
}
