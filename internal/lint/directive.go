package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// The repository's directive grammar. Directives are machine-readable
// comments of the form
//
//	//rtseed:<name> [reason]
//
// with no space after //, mirroring //go: directives. Placement rules:
//
//   - //rtseed:noalloc goes in the doc comment of a function declaration
//     (or on the line immediately above it) and marks the function for the
//     noalloc analyzer.
//   - //rtseed:nondeterministic-ok <reason> waives a detflow finding on
//     its own line, on the line below it, or — in a function's doc comment —
//     for the whole function. The reason is mandatory.
//   - //rtseed:alloc-ok <reason> waives a noalloc finding on its own line or
//     the line below it. The reason is mandatory; there is deliberately no
//     function-scope form, since waiving a whole annotated function would
//     contradict the annotation.
//   - //rtseed:handle-ok <reason> waives an eventhandle finding at a use
//     site, or — on a struct field or package-level variable declaration —
//     blesses that location as a checked long-term holder of engine.Event
//     handles. The reason is mandatory.
//   - //rtseed:kernelctx goes in the doc comment of a function declaration
//     (or on the line immediately above it, or immediately above a function
//     literal) and marks the body as kernel-context code: it may only be
//     reached from other kernelctx code or from a kernelctx-entry.
//   - //rtseed:kernelctx-entry <reason> marks a function as a blessed
//     transition from plain code into kernel context (the event-loop pump,
//     quiescent setup, serialized simulated-thread helpers). The reason is
//     mandatory.
//   - //rtseed:partial-ok <reason> waives an exhaustive finding on a switch
//     statement that deliberately handles a subset of an enum's values. The
//     reason is mandatory.
//   - //rtseed:units-ok <reason> waives a timeunits finding — a mixed-unit
//     arithmetic expression, comparison, or conversion between the tick and
//     nanosecond domains outside the declared helpers. The reason is
//     mandatory.
//   - //rtseed:bodystep-ok <reason> waives a bodystep finding — a
//     continuation-protocol violation in a continuation function (one
//     returning kernel.Next). The reason is mandatory.
//   - //rtseed:shared-ok <reason> waives an isoshare finding — shared
//     mutable state written from a parallel worker closure, or a fan-out
//     result merge whose iteration order is not the canonical index order.
//     The reason is mandatory.
const (
	DirNoalloc          = "noalloc"
	DirNondeterministic = "nondeterministic-ok"
	DirAllocOK          = "alloc-ok"
	DirHandleOK         = "handle-ok"
	DirKernelCtx        = "kernelctx"
	DirKernelCtxEntry   = "kernelctx-entry"
	DirPartialOK        = "partial-ok"
	DirUnitsOK          = "units-ok"
	DirBodyStepOK       = "bodystep-ok"
	DirSharedOK         = "shared-ok"
)

// reasonRequired records which directives must carry a justification.
var reasonRequired = map[string]bool{
	DirNoalloc:          false,
	DirNondeterministic: true,
	DirAllocOK:          true,
	DirHandleOK:         true,
	DirKernelCtx:        false,
	DirKernelCtxEntry:   true,
	DirPartialOK:        true,
	DirUnitsOK:          true,
	DirBodyStepOK:       true,
	DirSharedOK:         true,
}

// KnownDirectives lists every directive name the grammar accepts, in
// documentation order.
var KnownDirectives = []string{
	DirNoalloc, DirNondeterministic, DirAllocOK, DirHandleOK,
	DirKernelCtx, DirKernelCtxEntry, DirPartialOK, DirUnitsOK, DirBodyStepOK,
	DirSharedOK,
}

// A Directive is one parsed //rtseed: comment.
type Directive struct {
	Name   string
	Reason string
	Pos    token.Position
}

// Directives indexes every //rtseed: comment of a package by file and line,
// plus the malformed ones as ready-to-report diagnostics.
type Directives struct {
	byLine map[string]map[int][]Directive
	// Problems holds malformed directives (unknown name, missing reason)
	// as diagnostics the driver reports alongside analyzer findings.
	Problems []Diagnostic
}

const directivePrefix = "//rtseed:"

// ParseDirectives scans the comments of the given files. The files must have
// been parsed with parser.ParseComments.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{byLine: map[string]map[int][]Directive{}}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				d.add(fset.Position(c.Pos()), strings.TrimPrefix(c.Text, directivePrefix))
			}
		}
	}
	return d
}

func (d *Directives) add(pos token.Position, text string) {
	name, reason, _ := strings.Cut(text, " ")
	reason = strings.TrimSpace(reason)
	needReason, known := reasonRequired[name]
	switch {
	case !known:
		d.problem(pos, "unknown directive //rtseed:%s (known: %s)",
			name, strings.Join(KnownDirectives, ", "))
		return
	case needReason && reason == "":
		d.problem(pos, "//rtseed:%s needs a reason: //rtseed:%s <why this is safe>", name, name)
		return
	}
	byLine := d.byLine[pos.Filename]
	if byLine == nil {
		byLine = map[int][]Directive{}
		d.byLine[pos.Filename] = byLine
	}
	byLine[pos.Line] = append(byLine[pos.Line], Directive{Name: name, Reason: reason, Pos: pos})
}

func (d *Directives) problem(pos token.Position, format string, args ...any) {
	d.Problems = append(d.Problems, Diagnostic{
		Analyzer: "directives",
		Pos:      pos,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// at returns the first directive of the given name on the given line, or nil.
func (d *Directives) at(filename string, line int, name string) *Directive {
	for i, dir := range d.byLine[filename][line] {
		if dir.Name == name {
			return &d.byLine[filename][line][i]
		}
	}
	return nil
}

// All returns every well-formed directive of the package, sorted by file,
// line, and declaration order within the line. The pointers are stable: the
// same *Directive is returned by at/forDecl/ForLit lookups, so a Session
// can key its consulted set on them.
func (d *Directives) All() []*Directive {
	var out []*Directive
	for _, byLine := range d.byLine {
		for _, dirs := range byLine {
			for i := range dirs {
				out = append(out, &dirs[i])
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}

// ForLit returns the directive of the given name attached to a function
// literal: on the literal's first line or on the line immediately above it.
func (d *Directives) ForLit(fset *token.FileSet, lit *ast.FuncLit, name string) *Directive {
	pos := fset.Position(lit.Pos())
	if dir := d.at(pos.Filename, pos.Line, name); dir != nil {
		return dir
	}
	return d.at(pos.Filename, pos.Line-1, name)
}

// ForDecl returns the directive of the given name attached to a function
// declaration: in its doc comment, or on the line immediately above the
// declaration (covering directives separated from the doc by a blank line
// or placed without any doc text).
func (d *Directives) ForDecl(fset *token.FileSet, decl *ast.FuncDecl, name string) *Directive {
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			pos := fset.Position(c.Pos())
			if dir := d.at(pos.Filename, pos.Line, name); dir != nil {
				return dir
			}
		}
	}
	pos := fset.Position(decl.Pos())
	return d.at(pos.Filename, pos.Line-1, name)
}
