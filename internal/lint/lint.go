// Package lint is a self-contained static-analysis framework for the
// repository's own invariants: determinism of the simulation packages, the
// zero-allocation contract of functions annotated //rtseed:noalloc, and the
// discipline around generation-counted engine.Event handles.
//
// The framework deliberately mirrors the shape of golang.org/x/tools
// go/analysis (Analyzer, Pass, Reportf, analysistest-style fixtures) but is
// built only on the standard library: packages are enumerated with
// `go list -export -deps -json` and type-checked from source with imports
// resolved through the build cache's export data, so the module needs no
// third-party dependency to lint itself. See cmd/rtseed-vet for the driver
// and DESIGN.md §5 for the annotation grammar.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. Exactly one of Run and
// RunModule is set: Run analyzes one package at a time, RunModule sees the
// whole loaded package set at once (the call-graph analyzers need
// cross-package edges).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -json output.
	Name string
	// Doc is a one-paragraph description shown by `rtseed-vet -help`.
	Doc string
	// AppliesTo optionally restricts the analyzer to some import paths.
	// A nil AppliesTo means the analyzer runs on every loaded package.
	// The driver consults it; test harnesses run the analyzer regardless.
	AppliesTo func(importPath string) bool
	// Run performs the analysis on one package.
	Run func(*Pass) error
	// RunModule performs a whole-program analysis over every loaded
	// package. Module analyzers see exactly the packages the driver loaded:
	// running rtseed-vet on a sub-pattern narrows their view accordingly.
	RunModule func(*ModulePass) error
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

// String formats the diagnostic the way `go vet` does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
	Directives *Directives
}

// NewPackage type-checks the given parsed files (which must carry comments)
// and assembles a Package. Imports are resolved through imp.
func NewPackage(fset *token.FileSet, importPath, dir string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Syntax:     files,
		Types:      tpkg,
		TypesInfo:  info,
		Directives: ParseDirectives(fset, files),
	}, nil
}

// A Pass connects one Analyzer run to one Package and collects its findings.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
	session  *Session
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Waived reports whether a finding at pos is waived by a directive of the
// given name on the same source line or on the line immediately above it.
// A directive it finds is recorded in the session as consulted.
func (p *Pass) Waived(pos token.Pos, name string) bool {
	position := p.Pkg.Fset.Position(pos)
	dir := p.Pkg.Directives.at(position.Filename, position.Line, name)
	if dir == nil {
		dir = p.Pkg.Directives.at(position.Filename, position.Line-1, name)
	}
	if dir == nil {
		return false
	}
	p.session.consulted[dir] = true
	return true
}

// WaivedIn is Waived extended with function-scope waivers: a directive in
// the doc comment of the enclosing function waives every finding inside it.
// Both the line and the function directive are looked up, so each is
// recorded as consulted even when the other alone would waive the finding.
func (p *Pass) WaivedIn(decl *ast.FuncDecl, pos token.Pos, name string) bool {
	waived := p.Waived(pos, name)
	if decl != nil {
		if dir := p.FuncDirective(decl, name); dir != nil {
			p.session.consulted[dir] = true
			waived = true
		}
	}
	return waived
}

// FuncDirective returns the directive of the given name attached to decl —
// in its doc comment or on the line immediately above the declaration — or
// nil if there is none.
func (p *Pass) FuncDirective(decl *ast.FuncDecl, name string) *Directive {
	return p.Pkg.Directives.ForDecl(p.Pkg.Fset, decl, name)
}

// CalleeFunc resolves the function or method a call expression invokes,
// or nil for builtins, conversions, and dynamic calls through variables.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.TypesInfo().Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.TypesInfo().Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// CalleeBuiltin resolves the builtin a call invokes (make, new, append, ...)
// or nil if the call is not a builtin call.
func (p *Pass) CalleeBuiltin(call *ast.CallExpr) *types.Builtin {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	b, _ := p.TypesInfo().Uses[id].(*types.Builtin)
	return b
}

// TypesInfo returns the package's type information.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.TypesInfo }

// InspectFuncs walks every top-level declaration of every file, reporting
// the enclosing function declaration (nil for package-level var/const/type
// initializers) alongside each visited node.
func (p *Pass) InspectFuncs(visit func(file *ast.File, decl *ast.FuncDecl, n ast.Node) bool) {
	for _, file := range p.Pkg.Syntax {
		for _, d := range file.Decls {
			decl, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				if n == nil {
					return false
				}
				return visit(file, decl, n)
			})
		}
	}
}

// A Session is the state one suite run shares between its analyzers over one
// loaded package set. Module analyzers memoize expensive whole-module
// computations in it (the call graph, the function-summary set), so each is
// built once per run. Every Pass records in it which packages each analyzer
// examined and which waiver directives it consulted: waiverdrift, last in
// the suite, reads that record to tell live waivers from stale ones without
// running any analyzer a second time.
type Session struct {
	cache     map[string]any
	examined  map[examination]bool
	consulted map[*Directive]bool
}

// An examination is one analyzer having run over one package.
type examination struct{ analyzer, importPath string }

// NewSession returns an empty session, one per suite run.
func NewSession() *Session {
	return &Session{
		cache:     map[string]any{},
		examined:  map[examination]bool{},
		consulted: map[*Directive]bool{},
	}
}

// Consulted reports whether an analyzer of this session found d while
// deciding whether to waive a finding.
func (s *Session) Consulted(d *Directive) bool { return s.consulted[d] }

// Examined reports whether the named analyzer ran over the package at
// importPath in this session.
func (s *Session) Examined(analyzer, importPath string) bool {
	return s.examined[examination{analyzer, importPath}]
}

// pass builds the Pass of analyzer a over pkg, recording the examination.
func (s *Session) pass(a *Analyzer, pkg *Package, diags *[]Diagnostic) *Pass {
	s.examined[examination{a.Name, pkg.ImportPath}] = true
	return &Pass{Analyzer: a, Pkg: pkg, diags: diags, session: s}
}

// A ModulePass connects one module-level Analyzer run to the whole loaded
// package set and collects its findings.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	diags    *[]Diagnostic
	session  *Session
}

// Session returns the suite run this pass belongs to.
func (mp *ModulePass) Session() *Session { return mp.session }

// Shared returns the session's value under key, building and memoizing it on
// first use. A session covers one loaded package set, so builders may close
// over mp.Pkgs.
func (mp *ModulePass) Shared(key string, build func() any) any {
	v, ok := mp.session.cache[key]
	if !ok {
		v = build()
		mp.session.cache[key] = v
	}
	return v
}

// Reportf records a finding at pos, resolved through pkg's file set.
func (mp *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	position := pkg.Fset.Position(pos)
	*mp.diags = append(*mp.diags, Diagnostic{
		Analyzer: mp.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportfAt records a finding at an already-resolved position (directives
// carry token.Position, not token.Pos).
func (mp *ModulePass) ReportfAt(position token.Position, format string, args ...any) {
	*mp.diags = append(*mp.diags, Diagnostic{
		Analyzer: mp.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PackagePass builds a single-package Pass bound to this module run's
// analyzer, diagnostic sink and session, for module analyzers that mix
// per-package and whole-program checks. It records that the analyzer
// examined pkg.
func (mp *ModulePass) PackagePass(pkg *Package) *Pass {
	return mp.session.pass(mp.Analyzer, pkg, mp.diags)
}

// RunAnalyzer applies a to pkg within session s and returns its findings
// sorted by position. A module analyzer is run over the single-package set.
func RunAnalyzer(a *Analyzer, pkg *Package, s *Session) ([]Diagnostic, error) {
	if a.RunModule != nil {
		return RunModuleAnalyzer(a, []*Package{pkg}, s)
	}
	var diags []Diagnostic
	if err := a.Run(s.pass(a, pkg, &diags)); err != nil {
		return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
	}
	SortDiagnostics(diags)
	return diags, nil
}

// RunModuleAnalyzer applies a module analyzer to the whole loaded package
// set within session s and returns its findings sorted by position.
func RunModuleAnalyzer(a *Analyzer, pkgs []*Package, s *Session) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &ModulePass{Analyzer: a, Pkgs: pkgs, diags: &diags, session: s}
	if err := a.RunModule(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	SortDiagnostics(diags)
	return diags, nil
}

// SortDiagnostics orders findings by file, line, column, analyzer, message.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// IsInternalPkg reports whether importPath is rtseed/internal/<name> or a
// subpackage of it, for any of the given base names.
func IsInternalPkg(importPath string, names ...string) bool {
	for _, name := range names {
		prefix := "rtseed/internal/" + name
		if importPath == prefix || strings.HasPrefix(importPath, prefix+"/") {
			return true
		}
	}
	return false
}
