// Package waiverdrift implements the live-waiver audit analyzer.
//
// The //rtseed:*-ok directives are load-bearing exceptions: each one asserts
// that a specific determinism/noalloc/eventhandle/exhaustive violation
// exists and is understood. As the hot paths keep getting rewritten, a
// waiver can outlive the violation it excused — and a stale waiver is worse
// than none, because it silently licenses the next, unrelated violation
// someone introduces on that line. This analyzer keeps the escape-hatch
// system honest by re-deriving, on every run, which waivers still shield a
// live finding:
//
//   - Every waiver-consuming analyzer is re-run in audit mode, where
//     Pass.Waived reports the finding anyway but records the directive that
//     would have suppressed it. A waiver directive no audit finding touched
//     is stale and flagged at its own position. nondeterministic-ok is
//     consumed by two tiers (syntactic determinism and taint-based
//     detflow): a live finding from either keeps the waiver.
//   - Placement is audited too: //rtseed:noalloc must sit on a function
//     declaration, //rtseed:kernelctx on a declaration or function literal,
//     //rtseed:kernelctx-entry on a declaration — anywhere else the
//     directive is dead weight that reads as protection.
//   - //rtseed:nondeterministic-ok outside the determinism-scoped packages
//     is misplaced: there is no contract to waive there.
//   - A //rtseed:kernelctx-entry is an entry to somewhere: if the annotated
//     function no longer reaches any //rtseed:kernelctx function over any
//     call-graph edge (including the conservative interface/dynamic tiers —
//     over-approximation errs toward keeping the blessing), the transition
//     it blessed is gone and the directive is stale.
//
// Unknown directive names and missing mandatory reasons are reported by the
// directive parser itself (see Directives.Problems, surfaced by the driver);
// this analyzer audits the well-formed ones.
package waiverdrift

import (
	"go/ast"
	"go/types"
	"strings"

	"rtseed/internal/lint"
	"rtseed/internal/lint/bodystep"
	"rtseed/internal/lint/callgraph"
	"rtseed/internal/lint/determinism"
	"rtseed/internal/lint/detflow"
	"rtseed/internal/lint/eventhandle"
	"rtseed/internal/lint/exhaustive"
	"rtseed/internal/lint/isoshare"
	"rtseed/internal/lint/noalloc"
	"rtseed/internal/lint/timeunits"
)

// Analyzer is the waiver-audit checker.
var Analyzer = &lint.Analyzer{
	Name: "waiverdrift",
	Doc: "flag stale and misplaced //rtseed: directives\n\n" +
		"Re-runs the waiver-consuming analyzers with waivers disabled and flags\n" +
		"every //rtseed:alloc-ok, handle-ok, nondeterministic-ok, partial-ok,\n" +
		"units-ok, bodystep-ok, and shared-ok that no longer shields a live\n" +
		"finding, plus directives attached to the wrong kind of code and\n" +
		"kernelctx-entry blessings that no longer reach kernel context.",
	RunModule: run,
}

// audited maps each waiver directive to the per-package analyzers whose
// findings it waives. nondeterministic-ok is consumed by two tiers — the
// syntactic determinism analyzer here and the taint-based detflow module
// analyzer below — so a waiver is live if either still finds a violation
// under it.
var audited = []struct {
	dir      string
	analyzer *lint.Analyzer
}{
	{lint.DirHandleOK, eventhandle.Analyzer},
	{lint.DirNondeterministic, determinism.Analyzer},
	{lint.DirPartialOK, exhaustive.Analyzer},
	{lint.DirUnitsOK, timeunits.Analyzer},
	{lint.DirBodyStepOK, bodystep.Analyzer},
}

// auditedModule maps waiver directives consumed by module-level analyzers,
// which are audited once over the whole loaded set rather than per package.
// The audit runs share the module cache, so the call graph and function
// summaries are built once per rtseed-vet invocation, not once per auditor.
var auditedModule = []struct {
	dir      string
	analyzer *lint.Analyzer
}{
	{lint.DirAllocOK, noalloc.Analyzer},
	{lint.DirNondeterministic, detflow.Analyzer},
	{lint.DirSharedOK, isoshare.Analyzer},
}

// inAuditScope reports whether an analyzer's audit pass runs on importPath.
// Fixture packages are always in scope so the audit itself is testable.
func inAuditScope(a *lint.Analyzer, importPath string) bool {
	return a.AppliesTo == nil || a.AppliesTo(importPath) ||
		strings.HasPrefix(importPath, "rtseed/fixture/")
}

func run(mp *lint.ModulePass) error {
	g := callgraph.Shared(mp)

	moduleUsed := map[*lint.Directive]bool{}
	for _, a := range auditedModule {
		_, u, err := lint.RunModuleAnalyzerAuditCached(a.analyzer, mp.Pkgs, mp.Cache())
		if err != nil {
			return err
		}
		for d := range u {
			moduleUsed[d] = true
		}
	}

	for _, pkg := range mp.Pkgs {
		used := map[*lint.Directive]bool{}
		ran := map[string]bool{}
		for _, a := range audited {
			if !inAuditScope(a.analyzer, pkg.ImportPath) {
				continue
			}
			_, u, err := lint.RunAnalyzerAudit(a.analyzer, pkg)
			if err != nil {
				return err
			}
			for d := range u {
				used[d] = true
			}
			ran[a.dir] = true
		}

		placement := placements(pkg)

		for _, d := range pkg.Directives.All() {
			switch d.Name {
			case lint.DirHandleOK, lint.DirPartialOK, lint.DirUnitsOK, lint.DirBodyStepOK:
				if used[d] {
					continue
				}
				if !ran[d.Name] {
					mp.ReportfAt(d.Pos, "misplaced //rtseed:%s: package %s is outside the %s contract's scope",
						d.Name, pkg.ImportPath, analyzerFor(d.Name))
					continue
				}
				mp.ReportfAt(d.Pos, "stale //rtseed:%s: the %s finding it waives no longer exists (remove the waiver)",
					d.Name, analyzerFor(d.Name))
			case lint.DirNondeterministic:
				// Consumed by two tiers: the per-package syntactic
				// determinism analyzer and the module-level detflow taint
				// analyzer. Both share the determinism scope, so a waiver in
				// a package the per-package audit skipped is misplaced.
				if used[d] || moduleUsed[d] {
					continue
				}
				if !ran[d.Name] {
					mp.ReportfAt(d.Pos, "misplaced //rtseed:%s: package %s is outside the %s contract's scope",
						d.Name, pkg.ImportPath, analyzerFor(d.Name))
					continue
				}
				mp.ReportfAt(d.Pos, "stale //rtseed:%s: the %s finding it waives no longer exists (remove the waiver)",
					d.Name, analyzerFor(d.Name))
			case lint.DirAllocOK, lint.DirSharedOK:
				// Module-analyzer waivers: the auditors self-scope, so
				// staleness is the only drift to catch here.
				if !moduleUsed[d] {
					mp.ReportfAt(d.Pos, "stale //rtseed:%s: the %s finding it waives no longer exists (remove the waiver)",
						d.Name, analyzerFor(d.Name))
				}
			case lint.DirNoalloc:
				if placement.onDecl[d] == nil {
					mp.ReportfAt(d.Pos, "misplaced //rtseed:noalloc: not attached to a function declaration")
				}
			case lint.DirKernelCtx:
				if placement.onDecl[d] == nil && !placement.onLit[d] {
					mp.ReportfAt(d.Pos, "misplaced //rtseed:kernelctx: not attached to a function declaration or literal")
				}
			case lint.DirKernelCtxEntry:
				decl := placement.onDecl[d]
				if decl == nil {
					mp.ReportfAt(d.Pos, "misplaced //rtseed:kernelctx-entry: not attached to a function declaration")
					continue
				}
				if !reachesKernelCtx(g, pkg, decl) {
					mp.ReportfAt(d.Pos, "stale //rtseed:kernelctx-entry: %s no longer reaches any //rtseed:kernelctx function",
						decl.Name.Name)
				}
			}
		}
	}
	return nil
}

// analyzerFor names the analyzers whose findings a waiver directive waives,
// slash-joined when the directive serves more than one tier.
func analyzerFor(dir string) string {
	var names []string
	for _, a := range audited {
		if a.dir == dir {
			names = append(names, a.analyzer.Name)
		}
	}
	for _, a := range auditedModule {
		if a.dir == dir {
			names = append(names, a.analyzer.Name)
		}
	}
	if len(names) == 0 {
		return "?"
	}
	return strings.Join(names, "/")
}

// placement records which declaration or literal each annotation-style
// directive of a package is attached to.
type placement struct {
	onDecl map[*lint.Directive]*ast.FuncDecl
	onLit  map[*lint.Directive]bool
}

// placements resolves every noalloc/kernelctx/kernelctx-entry directive to
// its carrier, if any. The pointers ForDecl/ForLit return are the same ones
// Directives.All yields, so lookup is identity-based.
func placements(pkg *lint.Package) placement {
	p := placement{
		onDecl: map[*lint.Directive]*ast.FuncDecl{},
		onLit:  map[*lint.Directive]bool{},
	}
	names := []string{lint.DirNoalloc, lint.DirKernelCtx, lint.DirKernelCtxEntry}
	for _, file := range pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				for _, name := range names {
					if d := pkg.Directives.ForDecl(pkg.Fset, n, name); d != nil {
						p.onDecl[d] = n
					}
				}
			case *ast.FuncLit:
				if d := pkg.Directives.ForLit(pkg.Fset, n, lint.DirKernelCtx); d != nil {
					p.onLit[d] = true
				}
			}
			return true
		})
	}
	return p
}

// reachesKernelCtx reports whether the function declared by decl reaches a
// //rtseed:kernelctx-annotated body over any call-graph edge.
func reachesKernelCtx(g *callgraph.Graph, pkg *lint.Package, decl *ast.FuncDecl) bool {
	fn, _ := pkg.TypesInfo.Defs[decl.Name].(*types.Func)
	start := g.NodeFor(fn)
	if start == nil {
		return false
	}
	visited := map[*callgraph.Node]bool{start: true}
	queue := []*callgraph.Node{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n != start && isKernelCtx(n) {
			return true
		}
		for _, e := range n.Out {
			if !visited[e.Callee] {
				visited[e.Callee] = true
				queue = append(queue, e.Callee)
			}
		}
	}
	return false
}

// isKernelCtx reports whether a node carries the kernelctx annotation.
func isKernelCtx(n *callgraph.Node) bool {
	if n.Decl != nil {
		return n.Pkg.Directives.ForDecl(n.Pkg.Fset, n.Decl, lint.DirKernelCtx) != nil
	}
	return n.Pkg.Directives.ForLit(n.Pkg.Fset, n.Lit, lint.DirKernelCtx) != nil
}
