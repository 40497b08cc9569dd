// Package summary is the fourth tier of the rtseed-vet analyzer stack:
// per-function summaries computed over the whole-module call graph.
//
// Tier 1 is syntactic (detflow's call-site rule, noalloc's body checks),
// tier 2 is the call graph (kernelctx's reachability), tier 3 is
// intraprocedural dataflow (detflow, timeunits, bodystep, eventhandle).
// Each of those stops at a function boundary: a wall-clock read laundered
// through one helper frame, or a package variable bumped by a callee, is
// invisible to them. This package closes that gap by computing, for every
// function body in the loaded set, a conservative digest of its
// caller-visible behavior:
//
//   - ReturnTaint: nondeterminism sources (wall-clock, global rand,
//     environment reads) whose values reach a return value, transitively
//     through callees;
//   - ReturnFromParam: which inputs can flow to a return value;
//   - ParamEscapes: which inputs are stored somewhere that outlives the
//     call (an escaping store, a channel send, a goroutine hand-off);
//   - ParamWrites: which reference-like inputs the function writes through
//     (mutating the caller's object);
//   - GlobalWrites / CapturedWrites: package-level variables and captured
//     outer variables the body writes, directly or via callees;
//   - Alloc: a witness that the body allocates, for noalloc's callee checks.
//
// Summaries are computed bottom-up over the strongly-connected components
// of the call graph's direct tiers (Static/Go/Defer edges), so a callee's
// summary is final before any caller reads it; recursive components iterate
// to a fixpoint (every record only grows, and the lattice is finite, so the
// iteration terminates). Interface and Dynamic edges are deliberately
// excluded: they over-approximate heavily, and a summary that says
// "everything might happen" is worse than one that says "I don't know" —
// consumers fall back to their existing conservative call rules for calls
// the direct tiers cannot resolve.
//
// Every interprocedural record carries a witness (position, owning body,
// and the immediate callee it arrived through), so consumers render real
// call paths — "time.Now (via stamp → now)" — instead of bare verdicts.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"rtseed/internal/lint"
	"rtseed/internal/lint/callgraph"
)

// Taint kinds, shared with the detflow analyzer's messages.
const (
	KindWallClock = "wall-clock"
	KindRand      = "globally-seeded random"
	KindEnv       = "environment-dependent"
)

// A ParamSet is a bitmask over a function's inputs: the receiver (when there
// is one) has index 0 and the declared parameters follow in order. Inputs
// beyond 64 are silently untracked — a deliberate under-approximation; no
// function in this module comes close.
type ParamSet uint64

// Has reports whether input i is in the set.
func (s ParamSet) Has(i int) bool { return i >= 0 && i < 64 && s&(1<<uint(i)) != 0 }

// Add inserts input i, reporting whether the set changed.
func (s *ParamSet) Add(i int) bool {
	if i < 0 || i >= 64 || s.Has(i) {
		return false
	}
	*s |= 1 << uint(i)
	return true
}

// Union merges o into s, reporting whether s changed.
func (s *ParamSet) Union(o ParamSet) bool {
	if *s|o == *s {
		return false
	}
	*s |= o
	return true
}

// Empty reports whether the set has no members.
func (s ParamSet) Empty() bool { return s == 0 }

// An Origin is one nondeterminism source whose value reaches a function's
// return value.
type Origin struct {
	// Kind is one of the Kind* constants.
	Kind string
	// What names the source call, e.g. "time.Now".
	What string
	// Pos is the source call's position.
	Pos token.Pos
	// Func is the body the source call appears in.
	Func *callgraph.Node
	// Via is the immediate callee the taint arrived through; nil when the
	// source call is in this function's own body. TaintPath follows the
	// chain down to Func.
	Via *callgraph.Node
}

// originKey identifies an origin independent of the hop it arrived through.
type originKey struct {
	kind, what string
	pos        token.Pos
	fn         *callgraph.Node
}

func (o Origin) key() originKey { return originKey{o.Kind, o.What, o.Pos, o.Func} }

// A WriteWitness records one write to a package-level or captured variable:
// where the store (or the call that performs it) is, and which callee it
// happens through.
type WriteWitness struct {
	// Pos is the store's position — in this body, or at the call/argument
	// site when the write happens inside a callee.
	Pos token.Pos
	// Func is the body containing Pos.
	Func *callgraph.Node
	// Via is the immediate callee performing the write; nil for a direct
	// store in this body.
	Via *callgraph.Node
}

// An AllocWitness records one reason a body allocates.
type AllocWitness struct {
	// What names the allocating construct ("append", "closure capturing
	// variables", "call to fmt.Sprintf", ...).
	What string
	// Pos is the allocating construct's position.
	Pos token.Pos
	// Func is the body containing Pos.
	Func *callgraph.Node
	// Via is the immediate callee the allocation happens in; nil when it is
	// in this body.
	Via *callgraph.Node
}

// A Summary is the caller-visible digest of one function body. All fields
// are conservative may-information: absence is a proof of absence over the
// direct call tiers, presence is a witness, and anything reached only
// through Interface/Dynamic edges is out of scope by design.
type Summary struct {
	// Node is the summarized body.
	Node *callgraph.Node

	// ReturnTaint lists nondeterminism sources whose values may reach a
	// return value, in discovery order (deterministic run to run).
	ReturnTaint []Origin
	// ReturnFromParam marks inputs that may flow to a return value.
	ReturnFromParam ParamSet
	// ParamEscapes marks inputs that may be stored somewhere outliving the
	// call: a package variable, a field behind a reference-like input, a
	// captured variable, a channel, a goroutine.
	ParamEscapes ParamSet
	// ParamWrites marks reference-like inputs the body may write through.
	ParamWrites ParamSet
	// GlobalWrites maps package-level variables the body may write (directly
	// or via callees) to a witness each.
	GlobalWrites map[types.Object]*WriteWitness
	// CapturedWrites maps variables captured from enclosing functions that
	// the body may write, to a witness each. Only function literals have
	// entries; a literal's write to its *own* locals never appears.
	CapturedWrites map[types.Object]*WriteWitness
	// Alloc is a witness that the body may allocate, or nil when the direct
	// call tiers prove it allocation-free. Calls into bodies outside the
	// loaded set do not count (the loader sees the whole module, so those
	// are standard-library calls vetted by noalloc's own call rules).
	Alloc *AllocWitness

	sig    *types.Signature
	rtSeen map[originKey]bool
}

// ArgIndex maps position i in a ResolveCall argument list to this function's
// ParamSet index, folding variadic overflow onto the last parameter.
func (sum *Summary) ArgIndex(i int) int {
	offset := 0
	if sum.sig != nil && sum.sig.Recv() != nil {
		offset = 1
	}
	if i < offset {
		return 0
	}
	j := i - offset
	np := 0
	if sum.sig != nil {
		np = sum.sig.Params().Len()
	}
	if np == 0 {
		return offset
	}
	if j >= np-1 && sum.sig.Variadic() {
		j = np - 1
	}
	if j >= np {
		j = np - 1
	}
	return offset + j
}

// A Set holds the summaries of one loaded package set.
type Set struct {
	graph *callgraph.Graph
	sums  map[*callgraph.Node]*Summary
}

// Graph returns the call graph the summaries were computed over.
func (s *Set) Graph() *callgraph.Graph { return s.graph }

// Of returns the summary of n — never nil for a node of the computed graph;
// foreign nodes get an empty (allocating-unknown, nothing-proven) summary.
func (s *Set) Of(n *callgraph.Node) *Summary {
	if sum := s.sums[n]; sum != nil {
		return sum
	}
	return newSummary(n)
}

func newSummary(n *callgraph.Node) *Summary {
	return &Summary{
		Node:           n,
		GlobalWrites:   map[types.Object]*WriteWitness{},
		CapturedWrites: map[types.Object]*WriteWitness{},
		sig:            nodeSig(n),
		rtSeen:         map[originKey]bool{},
	}
}

// Shared returns the summary set of mp's loaded package set, computed once
// per session over the shared call graph.
func Shared(mp *lint.ModulePass) *Set {
	return mp.Shared("summary", func() any {
		return Compute(mp.Pkgs, callgraph.Shared(mp))
	}).(*Set)
}

// Compute builds summaries for every body in the graph, bottom-up over the
// SCCs of the direct call tiers.
func Compute(pkgs []*lint.Package, g *callgraph.Graph) *Set {
	_ = pkgs // the graph already carries every loaded body
	s := &Set{graph: g, sums: make(map[*callgraph.Node]*Summary, len(g.Nodes))}
	for _, n := range g.Nodes {
		s.sums[n] = newSummary(n)
	}
	sccs := bottomUpSCCs(g)
	for _, scc := range sccs {
		for {
			changed := false
			for _, n := range scc {
				if computeOne(s, n) {
					changed = true
				}
			}
			if !changed || !isRecursive(scc) {
				break
			}
		}
	}
	for _, n := range g.Nodes {
		intrinsicAlloc(s.sums[n], n)
	}
	for _, scc := range sccs {
		for {
			changed := false
			for _, n := range scc {
				if propagateAlloc(s, n) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return s
}

// ResolveCall resolves a call expression to the summarized callee, or
// (nil, nil) for calls the direct tiers cannot name: builtins, conversions,
// interface methods, func-typed values, and bodies outside the loaded set.
// The returned argument list is aligned with ParamSet indexing: for a bound
// method call the receiver expression is prepended, and for a method
// expression call (T.M(recv, ...)) the explicit receiver is already first.
func (s *Set) ResolveCall(info *types.Info, call *ast.CallExpr) (*Summary, []ast.Expr) {
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		if n := s.graph.LitNode(lit); n != nil {
			return s.Of(n), call.Args
		}
		return nil, nil
	}
	// Peel generic instantiation syntax f[T](...).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var id *ast.Ident
	var recv ast.Expr
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			recv = f.X
		}
	}
	if id == nil {
		return nil, nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil, nil
	}
	n := s.graph.NodeFor(fn)
	if n == nil {
		return nil, nil
	}
	args := call.Args
	if recv != nil {
		args = append([]ast.Expr{recv}, args...)
	}
	return s.Of(n), args
}

// TaintPath returns the callee chain from n down to the body containing the
// origin's source call, for "via a → b" diagnostics. o must be an entry of
// n's ReturnTaint (or a copy of one).
func (s *Set) TaintPath(n *callgraph.Node, o Origin) []*callgraph.Node {
	path := []*callgraph.Node{n}
	seen := map[*callgraph.Node]bool{n: true}
	for o.Via != nil && !seen[o.Via] {
		next := o.Via
		path = append(path, next)
		seen[next] = true
		found := false
		for _, oo := range s.Of(next).ReturnTaint {
			if oo.key() == o.key() {
				o, found = oo, true
				break
			}
		}
		if !found {
			break
		}
	}
	return path
}

// AllocPath returns the callee chain from n down to the body containing its
// allocation witness.
func (s *Set) AllocPath(n *callgraph.Node) []*callgraph.Node {
	path := []*callgraph.Node{n}
	seen := map[*callgraph.Node]bool{n: true}
	for {
		w := s.Of(n).Alloc
		if w == nil || w.Via == nil || seen[w.Via] {
			return path
		}
		n = w.Via
		path = append(path, n)
		seen[n] = true
	}
}

// WritePath returns the callee chain from n down to the body that writes
// obj (a GlobalWrites or CapturedWrites key of n's summary).
func (s *Set) WritePath(n *callgraph.Node, obj types.Object) []*callgraph.Node {
	path := []*callgraph.Node{n}
	seen := map[*callgraph.Node]bool{n: true}
	for {
		sum := s.Of(n)
		w := sum.GlobalWrites[obj]
		if w == nil {
			w = sum.CapturedWrites[obj]
		}
		if w == nil || w.Via == nil || seen[w.Via] {
			return path
		}
		n = w.Via
		path = append(path, n)
		seen[n] = true
	}
}

// Callee resolves the declared function or method a call invokes, or nil
// for builtins, conversions, and dynamic calls — the free-function twin of
// lint.Pass.CalleeFunc for code that holds only a *types.Info.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// clockValueFuncs are the time functions whose results depend on the host
// clock; the blocking ones (Sleep, NewTimer, ...) belong to detflow's
// call-site rule — blocking is a side effect, not a value.
var clockValueFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// envValueFuncs read the process environment.
var envValueFuncs = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

// Source recognizes a call whose result is nondeterministic at the source:
// wall-clock reads, draws from the process-global math/rand source, and
// environment reads. This is the one table both the summary computation and
// the detflow analyzer consult, so the two tiers can never disagree about
// what counts as a source.
func Source(info *types.Info, call *ast.CallExpr) (kind, what string, ok bool) {
	fn := Callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	sig, sok := fn.Type().(*types.Signature)
	if !sok || sig.Recv() != nil { // methods (e.g. on a seeded *rand.Rand) are fine
		return "", "", false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "time" && clockValueFuncs[name]:
		return KindWallClock, "time." + name, true
	case (path == "math/rand" || path == "math/rand/v2") && !strings.HasPrefix(name, "New"):
		return KindRand, path + "." + name, true
	case path == "os" && envValueFuncs[name]:
		return KindEnv, "os." + name, true
	}
	return "", "", false
}

// nodeSig returns a node's function signature.
func nodeSig(n *callgraph.Node) *types.Signature {
	if n.Func != nil {
		sig, _ := n.Func.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil {
		if tv, ok := n.Pkg.TypesInfo.Types[n.Lit]; ok && tv.Type != nil {
			if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
				return sig
			}
		}
	}
	return nil
}

// nodeBody returns the node's function body.
func nodeBody(n *callgraph.Node) *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}
