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
//   - Every waiver directive has exactly one consuming analyzer. The suite
//     runs those analyzers before this one in the same lint.Session, which
//     records each directive a Pass consulted while deciding to waive a
//     finding and each package an analyzer examined. A waiver no analyzer
//     consulted is stale, or misplaced when its consumer never examined
//     the package (the directive sits outside that contract's scope), and
//     is flagged at its own position.
//   - Placement is audited too: //rtseed:noalloc must sit on a function
//     declaration, //rtseed:kernelctx on a declaration or function literal,
//     //rtseed:kernelctx-entry on a declaration — anywhere else the
//     directive is dead weight that reads as protection.
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

	"rtseed/internal/lint"
	"rtseed/internal/lint/bodystep"
	"rtseed/internal/lint/callgraph"
	"rtseed/internal/lint/detflow"
	"rtseed/internal/lint/eventhandle"
	"rtseed/internal/lint/exhaustive"
	"rtseed/internal/lint/isoshare"
	"rtseed/internal/lint/noalloc"
	"rtseed/internal/lint/timeunits"
)

// Analyzer is the waiver-audit checker. It reads the session the rest of
// the suite ran in, so it must run after every analyzer in waivers.
var Analyzer = &lint.Analyzer{
	Name: "waiverdrift",
	Doc: "flag stale and misplaced //rtseed: directives\n\n" +
		"Flags every //rtseed:alloc-ok, handle-ok, nondeterministic-ok,\n" +
		"partial-ok, units-ok, bodystep-ok, and shared-ok that no analyzer of\n" +
		"the run consulted to waive a finding, plus directives attached to the\n" +
		"wrong kind of code and kernelctx-entry blessings that no longer reach\n" +
		"kernel context.",
	RunModule: run,
}

// waivers maps each waiver directive to the one analyzer whose findings it
// waives.
var waivers = map[string]*lint.Analyzer{
	lint.DirAllocOK:          noalloc.Analyzer,
	lint.DirHandleOK:         eventhandle.Analyzer,
	lint.DirNondeterministic: detflow.Analyzer,
	lint.DirPartialOK:        exhaustive.Analyzer,
	lint.DirUnitsOK:          timeunits.Analyzer,
	lint.DirBodyStepOK:       bodystep.Analyzer,
	lint.DirSharedOK:         isoshare.Analyzer,
}

func run(mp *lint.ModulePass) error {
	g := callgraph.Shared(mp)
	session := mp.Session()
	for _, pkg := range mp.Pkgs {
		placement := placements(pkg)
		for _, d := range pkg.Directives.All() {
			if a, ok := waivers[d.Name]; ok {
				switch {
				case session.Consulted(d):
				case !session.Examined(a.Name, pkg.ImportPath):
					mp.ReportfAt(d.Pos, "misplaced //rtseed:%s: package %s is outside the %s contract's scope",
						d.Name, pkg.ImportPath, a.Name)
				default:
					mp.ReportfAt(d.Pos, "stale //rtseed:%s: the %s finding it waives no longer exists (remove the waiver)",
						d.Name, a.Name)
				}
				continue
			}
			switch d.Name {
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
