// Package isoshare implements the parallel-isolation analyzer: it proves,
// statically, that the repository's fan-out sites are worker-count
// deterministic. The sweep executor's contract (see internal/sweep) is that
// fn must not share mutable state across calls — cell i's result lands in
// slot i, and the output is bit-identical to a sequential loop regardless
// of worker count. This analyzer checks the callers' side of that contract
// using whole-module function summaries (internal/lint/summary):
//
//   - A worker closure passed to sweep.Map or sweep.Each (including the
//     cluster layer's per-epoch machine steps, which are Each cells) must
//     not write package-level state — directly or through any function the
//     summary tier can see below it. The finding names the variable and
//     the call path down to the writing frame.
//   - A worker closure may write captured state only through a location
//     indexed by its own cell parameter: out[i] = v, sims[i].run(...), and
//     friends are each worker's private slot; total += v, m[k] = v, and
//     writes through captured pointers race across workers and make the
//     result depend on scheduling.
//   - The function doing the fan-out must merge results in canonical index
//     order: a `for ... range m` over a map anywhere in a fan-out
//     function's own body (worker literals aside) orders the merge by map
//     iteration, which varies run to run and worker count to worker count.
//
// The analyzer resolves writes through the direct call tiers only
// (Static/Go/Defer, like the summary tier itself): a worker that launders a
// shared write through an interface or a func value is not caught, which
// errs toward silence, not noise. internal/sweep itself is exempt in code —
// its out[i] slot protocol and error table are the mechanism under audit,
// not a client of it. Findings are waived with //rtseed:shared-ok <reason>.
package isoshare

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

// Analyzer is the parallel-isolation checker.
var Analyzer = &lint.Analyzer{
	Name: "isoshare",
	Doc: "prove worker closures share no mutable state and merges are index-ordered\n\n" +
		"Flags package-level or captured-variable writes reachable from a\n" +
		"sweep.Map/Each worker closure (captured writes indexed by the cell\n" +
		"parameter are each worker's own slot and pass), and map-ordered\n" +
		"result merges in fan-out functions. Waive with\n" +
		"//rtseed:shared-ok <reason>.",
	RunModule: run,
}

const sweepPkg = "rtseed/internal/sweep"

// inScope reports whether isoshare audits importPath: the simulation scope,
// minus the sweep executor itself (its slot protocol is the mechanism under
// audit), plus fixtures so the analyzer is testable.
func inScope(importPath string) bool {
	if importPath == sweepPkg {
		return false
	}
	return lint.InSimScope(importPath) || strings.HasPrefix(importPath, "rtseed/fixture/")
}

func run(mp *lint.ModulePass) error {
	sums := summary.Shared(mp)
	for _, pkg := range mp.Pkgs {
		if !inScope(pkg.ImportPath) {
			continue
		}
		pass := mp.PackagePass(pkg)
		for _, file := range pkg.Syntax {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				checkDecl(pass, sums, decl)
			}
		}
	}
	return nil
}

// checkDecl finds the fan-out calls in one declaration, checks each worker
// literal, and — if the declaration fans out at all — audits its merge
// loops for map ordering.
func checkDecl(pass *lint.Pass, sums *summary.Set, decl *ast.FuncDecl) {
	fansOut := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isFanOut(pass, call) {
			return true
		}
		fansOut = true
		if len(call.Args) > 0 {
			if lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit); ok {
				checkWorker(pass, sums, decl, lit)
			}
		}
		return true
	})
	if !fansOut {
		return
	}
	// Merge loops: a map range in the fan-out function's own body (not
	// inside worker literals) orders the merge by map iteration.
	var skip func(n ast.Node) bool
	skip = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo().Types[n.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					report(pass, decl, n.Pos(),
						"fan-out results are merged by ranging over %s, a map; iterate in canonical index order so the result is worker-count-independent",
						exprString(n.X))
				}
			}
		}
		return true
	}
	ast.Inspect(decl.Body, skip)
}

// isFanOut reports whether call is sweep.Map or sweep.Each.
func isFanOut(pass *lint.Pass, call *ast.CallExpr) bool {
	fn := pass.CalleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != sweepPkg {
		return false
	}
	return fn.Name() == "Map" || fn.Name() == "Each"
}

// checkWorker audits one worker literal: package-level writes anywhere
// below it (via its summary) and captured writes in its own body and the
// calls it makes.
func checkWorker(pass *lint.Pass, sums *summary.Set, decl *ast.FuncDecl, lit *ast.FuncLit) {
	node := sums.Graph().LitNode(lit)
	if node == nil {
		return
	}
	sum := sums.Of(node)
	info := pass.TypesInfo()

	// Package-level writes: never worker-safe, however deep. Sorted by name
	// so same-position findings (several deep writes reported at the
	// literal) keep a stable order across runs.
	globals := make([]types.Object, 0, len(sum.GlobalWrites))
	for obj := range sum.GlobalWrites {
		globals = append(globals, obj)
	}
	sort.Slice(globals, func(i, j int) bool { return globals[i].Name() < globals[j].Name() })
	for _, obj := range globals {
		w := sum.GlobalWrites[obj]
		pos, suffix := lit.Pos(), ""
		if w.Via == nil {
			pos = w.Pos
		} else if path := sums.WritePath(node, obj); len(path) > 1 {
			suffix = " (via " + callgraph.FormatPath(path[1:]) + ")"
		}
		report(pass, decl, pos,
			"parallel worker closure writes package-level %s%s; workers share it and the result depends on scheduling",
			obj.Name(), suffix)
	}

	params := litParams(info, lit)
	// Captured writes: scan the body (nested literals included — they run
	// on the worker when invoked) for direct stores and for resolved calls
	// that write through a captured argument or receiver.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkCapturedWrite(pass, decl, info, lit, params, lhs)
			}
		case *ast.IncDecStmt:
			checkCapturedWrite(pass, decl, info, lit, params, n.X)
		case *ast.CallExpr:
			callee, args := sums.ResolveCall(info, n)
			if callee == nil {
				return true
			}
			for i, a := range args {
				if callee.ParamWrites.Has(callee.ArgIndex(i)) {
					checkCapturedWrite(pass, decl, info, lit, params, a)
				}
			}
		}
		return true
	})
}

// checkCapturedWrite flags a write through expr when its root is a variable
// captured from outside the worker literal and the access path is not
// indexed by one of the worker's own parameters. A plain rebinding of a
// captured name is still a shared write (the variable itself is shared);
// package-level roots are the summary check's business, not this one's.
func checkCapturedWrite(pass *lint.Pass, decl *ast.FuncDecl, info *types.Info, lit *ast.FuncLit, params map[types.Object]bool, expr ast.Expr) {
	obj := lint.RootObj(info, expr)
	if obj == nil || params[obj] || lint.IsPkgVar(obj) {
		return
	}
	if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
		return // the worker's own local
	}
	if indexedByParam(info, params, expr) {
		return // out[i] = v: each worker owns slot i
	}
	report(pass, decl, expr.Pos(),
		"parallel worker closure writes captured %s without indexing by its cell parameter; workers share it and the result depends on scheduling",
		obj.Name())
}

// indexedByParam reports whether the access path of expr goes through an
// index expression whose index mentions one of the worker's parameters —
// the out[i] slot protocol that makes a captured write worker-private.
func indexedByParam(info *types.Info, params map[types.Object]bool, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok || found {
			return !found
		}
		ast.Inspect(ix.Index, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && params[info.ObjectOf(id)] {
				found = true
			}
			return !found
		})
		return !found
	})
	return found
}

// litParams collects the parameter objects of a function literal.
func litParams(info *types.Info, lit *ast.FuncLit) map[types.Object]bool {
	params := map[types.Object]bool{}
	if lit.Type.Params == nil {
		return params
	}
	for _, f := range lit.Type.Params.List {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				params[obj] = true
			}
		}
	}
	return params
}

// report emits a finding unless a //rtseed:shared-ok directive waives it at
// the position or for the whole enclosing declaration.
func report(pass *lint.Pass, decl *ast.FuncDecl, pos token.Pos, format string, args ...any) {
	if pass.WaivedIn(decl, pos, lint.DirSharedOK) {
		return
	}
	pass.Reportf(pos, format+" (//rtseed:shared-ok <reason> to waive)", args...)
}

func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "the expression"
}
