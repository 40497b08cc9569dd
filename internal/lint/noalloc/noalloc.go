// Package noalloc enforces the zero-allocation contract of functions
// annotated //rtseed:noalloc — the engine's Schedule/Step/heap paths and
// the kernel's timer/sleep/dispatch/compute/service callbacks, whose
// steady-state allocation-freedom the benchmarks measure and
// TestScheduleStepZeroAlloc asserts at runtime. The analyzer moves that
// gate to the front-end: inside an annotated function it flags every
// construct that allocates or may allocate — make/new, heap composite
// literals, append growth, capturing closures, interface boxing, string
// concatenation, fmt calls, and go statements.
//
// Value-typed struct literals (kernel.Resume{...}, engine.Event{}) are not
// flagged: they live on the stack unless something else — which is flagged —
// makes them escape. Panic arguments are exempt: a panic is the cold path by
// definition, and its formatting cost is irrelevant to steady state.
// Amortized or cold-path allocations are waived with
// //rtseed:alloc-ok <reason> on the offending line.
//
// The analyzer is a module analyzer so it can consult whole-module function
// summaries (internal/lint/summary): a static call from an annotated
// function to an unannotated callee whose summary carries an allocation
// witness is flagged too, with the call path down to the allocating frame.
// Annotated callees are trusted — they are checked (and waived) themselves.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"rtseed/internal/lint"
	"rtseed/internal/lint/callgraph"
	"rtseed/internal/lint/summary"
)

// Analyzer is the zero-allocation checker.
var Analyzer = &lint.Analyzer{
	Name: "noalloc",
	Doc: "flag allocating constructs inside functions annotated //rtseed:noalloc\n\n" +
		"Checks the annotated body syntactically (make/new/append, heap\n" +
		"literals, boxing, fmt, go statements, capturing closures) and, via\n" +
		"whole-module function summaries, flags static calls to unannotated\n" +
		"callees that allocate anywhere below the call. Panic arguments are\n" +
		"exempt (cold path). Waive with //rtseed:alloc-ok <reason>.",
	RunModule: runModule,
}

// reportFunc reports a finding unless the line carries //rtseed:alloc-ok.
type reportFunc func(pos token.Pos, format string, args ...any)

func runModule(mp *lint.ModulePass) error {
	sums := summary.Shared(mp)
	for _, pkg := range mp.Pkgs {
		pass := mp.PackagePass(pkg)
		for _, file := range pkg.Syntax {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				if pass.FuncDirective(decl, lint.DirNoalloc) == nil {
					continue
				}
				checkFunc(pass, sums, decl)
			}
		}
	}
	return nil
}

func checkFunc(pass *lint.Pass, sums *summary.Set, decl *ast.FuncDecl) {
	report := func(pos token.Pos, format string, args ...any) {
		if !pass.Waived(pos, lint.DirAllocOK) {
			pass.Reportf(pos, format, args...)
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(pass, n) {
				return false // panic arguments are the cold path
			}
			checkCall(pass, sums, n, report)
		case *ast.FuncLit:
			if captured := capturedVars(pass, decl, n); len(captured) > 0 {
				report(n.Pos(), "closure captures %s and allocates; hoist it to a pre-allocated field or func value",
					strings.Join(captured, ", "))
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal allocates on the heap")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo().Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal allocates its backing array")
				case *types.Map:
					report(n.Pos(), "map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			checkConcat(pass, n, report)
		case *ast.AssignStmt:
			checkAssignBoxing(pass, n, report)
		case *ast.ValueSpec:
			checkSpecBoxing(pass, n, report)
		case *ast.ReturnStmt:
			checkReturnBoxing(pass, decl, n, report)
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a new goroutine")
		}
		return true
	})
}

// isPanicCall reports whether call is the built-in panic.
func isPanicCall(pass *lint.Pass, call *ast.CallExpr) bool {
	b := pass.CalleeBuiltin(call)
	return b != nil && b.Name() == "panic"
}

func checkCall(pass *lint.Pass, sums *summary.Set, call *ast.CallExpr, report reportFunc) {
	if b := pass.CalleeBuiltin(call); b != nil {
		switch b.Name() {
		case "make":
			report(call.Pos(), "make allocates")
		case "new":
			report(call.Pos(), "new allocates")
		case "append":
			report(call.Pos(), "append may grow (reallocate) its backing array")
		}
		return
	}
	// Explicit conversion to an interface type boxes its operand.
	if tv, ok := pass.TypesInfo().Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && isConcrete(pass, call.Args[0]) {
			report(call.Pos(), "conversion boxes %s into %s", exprTypeName(pass, call.Args[0]), tv.Type)
		}
		return
	}
	if fn := pass.CalleeFunc(call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		report(call.Pos(), "fmt.%s allocates (formatting boxes its arguments)", fn.Name())
		return
	}
	checkSummaryAlloc(pass, sums, call, report)
	checkArgBoxing(pass, call, report)
}

// checkSummaryAlloc flags a static call to an unannotated callee whose
// summary carries an allocation witness: the annotated caller's zero-alloc
// contract does not survive the call. Annotated callees are trusted — their
// own bodies are checked directly, and their waivers are theirs to carry.
func checkSummaryAlloc(pass *lint.Pass, sums *summary.Set, call *ast.CallExpr, report reportFunc) {
	if sums == nil {
		return
	}
	callee, _ := sums.ResolveCall(pass.TypesInfo(), call)
	if callee == nil || callee.Alloc == nil || summary.NoallocAnnotated(callee.Node) {
		return
	}
	path := sums.AllocPath(callee.Node)
	if len(path) > 1 {
		report(call.Pos(), "call to %s allocates (%s, via %s)",
			callee.Node.Name(), callee.Alloc.What, callgraph.FormatPath(path))
		return
	}
	report(call.Pos(), "call to %s allocates (%s at line %d)",
		callee.Node.Name(), callee.Alloc.What, pass.Pkg.Fset.Position(callee.Alloc.Pos).Line)
}

// checkArgBoxing flags concrete arguments passed to interface-typed
// parameters: the implicit conversion heap-boxes the value.
func checkArgBoxing(pass *lint.Pass, call *ast.CallExpr, report reportFunc) {
	tv, ok := pass.TypesInfo().Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // a slice passed through s... is not boxed per element
			}
			paramType = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			paramType = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(paramType) && isConcrete(pass, arg) {
			report(arg.Pos(), "argument boxes %s into %s", exprTypeName(pass, arg), paramType)
		}
	}
}

func checkConcat(pass *lint.Pass, expr *ast.BinaryExpr, report reportFunc) {
	if expr.Op != token.ADD {
		return
	}
	tv, ok := pass.TypesInfo().Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil { // constants fold at compile time
		return
	}
	if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
		// Report only the outermost + of a chain: the operands' own
		// BinaryExprs would double-report the same line.
		if inner, ok := ast.Unparen(expr.X).(*ast.BinaryExpr); ok && inner.Op == token.ADD {
			return
		}
		report(expr.Pos(), "string concatenation allocates")
	}
}

func checkAssignBoxing(pass *lint.Pass, assign *ast.AssignStmt, report reportFunc) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, lhs := range assign.Lhs {
		lhsTV, ok := pass.TypesInfo().Types[lhs]
		if !ok || lhsTV.Type == nil || !types.IsInterface(lhsTV.Type) {
			continue
		}
		if isConcrete(pass, assign.Rhs[i]) {
			report(assign.Rhs[i].Pos(), "assignment boxes %s into %s",
				exprTypeName(pass, assign.Rhs[i]), lhsTV.Type)
		}
	}
}

func checkSpecBoxing(pass *lint.Pass, spec *ast.ValueSpec, report reportFunc) {
	if spec.Type == nil {
		return
	}
	tv, ok := pass.TypesInfo().Types[spec.Type]
	if !ok || tv.Type == nil || !types.IsInterface(tv.Type) {
		return
	}
	for _, v := range spec.Values {
		if isConcrete(pass, v) {
			report(v.Pos(), "declaration boxes %s into %s", exprTypeName(pass, v), tv.Type)
		}
	}
}

func checkReturnBoxing(pass *lint.Pass, decl *ast.FuncDecl, ret *ast.ReturnStmt, report reportFunc) {
	fn, ok := pass.TypesInfo().Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	results := fn.Type().(*types.Signature).Results()
	if len(ret.Results) != results.Len() {
		return // naked return or multi-value call passthrough
	}
	for i, r := range ret.Results {
		if types.IsInterface(results.At(i).Type()) && isConcrete(pass, r) {
			report(r.Pos(), "return boxes %s into %s", exprTypeName(pass, r), results.At(i).Type())
		}
	}
}

// capturedVars lists the names of variables declared in decl (including its
// receiver and parameters) that lit closes over, in source order. A closure
// that captures nothing compiles to a static function value and is free.
func capturedVars(pass *lint.Pass, decl *ast.FuncDecl, lit *ast.FuncLit) []string {
	type capture struct {
		name string
		pos  token.Pos
	}
	var caps []capture
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo().Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Captured: declared inside the enclosing function but outside the
		// literal. Package-level variables are shared, not captured.
		if v.Pos() < decl.Pos() || v.Pos() > decl.End() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		seen[v] = true
		caps = append(caps, capture{name: v.Name(), pos: v.Pos()})
		return true
	})
	sort.Slice(caps, func(i, j int) bool { return caps[i].pos < caps[j].pos })
	names := make([]string, len(caps))
	for i, c := range caps {
		names[i] = c.name
	}
	return names
}

// isConcrete reports whether expr has a concrete (non-interface, non-nil)
// type, i.e. whether converting it to an interface boxes a value.
func isConcrete(pass *lint.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo().Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	return !types.IsInterface(tv.Type)
}

func exprTypeName(pass *lint.Pass, expr ast.Expr) string {
	tv, ok := pass.TypesInfo().Types[expr]
	if !ok || tv.Type == nil {
		return "value"
	}
	return tv.Type.String()
}
