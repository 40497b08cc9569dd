// Package callgraph builds a whole-program call graph over the packages the
// lint loader type-checked, on the standard library only. It is the
// foundation of the module-level analyzers (kernelctx, waiverdrift): where
// the per-package analyzers reason about one function body at a time, the
// graph answers "who can invoke this body, and from where".
//
// Resolution is deliberately layered by confidence:
//
//   - Static edges: direct calls whose callee the type checker names — plain
//     function calls, concrete method calls, and immediately-invoked
//     function literals. Go and Defer edges are Static edges that happen
//     through a go or defer statement (a Go edge matters: the callee runs on
//     a fresh goroutine, outside whatever execution context the caller had).
//   - Ref edges: a function or method referenced as a value without being
//     called — the address-taken set. A reference is not an invocation, but
//     it is how an invocation escapes static view, so the consumers treat it
//     as "may later be called from anywhere the value flows".
//   - Interface edges: a call through an interface method, conservatively
//     resolved to the matching method of every loaded concrete type that
//     implements the interface.
//   - Dynamic edges: a call through a func-typed value (field, variable,
//     parameter), conservatively resolved to every address-taken node with
//     an identical signature.
//
// Interface and Dynamic edges over-approximate heavily by construction;
// analyzers that must not cry wolf (kernelctx) restrict their verdicts to
// Static/Go/Defer/Ref edges and use the conservative tiers only for
// reachability questions (waiverdrift's stale-entry audit), where
// over-approximation errs toward silence.
//
// Function literals get their own nodes: a closure's body can run in a very
// different context from the function that lexically created it (the kernel
// pre-allocates its engine callbacks in setup code), so conflating the two
// would wreck context analyses. Nodes and edges are emitted in deterministic
// (file, position) order so diagnostics are stable run to run.
//
// Out of scope, documented rather than guessed at: package-level variable
// initializer expressions (no function body owns them) and bodies in
// packages outside the loaded set.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"rtseed/internal/lint"
)

// EdgeKind classifies how a caller reaches a callee.
type EdgeKind int

// Edge kinds, from most to least precise.
const (
	// Static is a direct call with a statically named callee.
	Static EdgeKind = iota + 1
	// Go is a direct call through a go statement: the callee body runs on
	// a new goroutine.
	Go
	// Defer is a direct call through a defer statement: the callee runs in
	// the caller's goroutine at function exit.
	Defer
	// Ref is a function value reference (address taken), not a call.
	Ref
	// Interface is a call through an interface method, resolved to a
	// concrete implementation conservatively.
	Interface
	// Dynamic is a call through a func-typed value, resolved by signature
	// identity against the address-taken set conservatively.
	Dynamic
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	switch k {
	case Static:
		return "static"
	case Go:
		return "go"
	case Defer:
		return "defer"
	case Ref:
		return "ref"
	case Interface:
		return "interface"
	case Dynamic:
		return "dynamic"
	default:
		return "unknown"
	}
}

// An Edge is one caller→callee connection, positioned at the call (or
// reference) site.
type Edge struct {
	Caller *Node
	Callee *Node
	Kind   EdgeKind
	Pos    token.Pos
}

// A Node is one function body: a declared function or method, or a function
// literal.
type Node struct {
	// Pkg is the package the body lives in.
	Pkg *lint.Package
	// Func is the declared function object; nil for literals.
	Func *types.Func
	// Decl is the declaration carrying the body; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the function literal; nil for declarations.
	Lit *ast.FuncLit
	// Parent is the node whose body lexically contains Lit; nil for
	// declarations.
	Parent *Node
	// GoSpawned marks a literal that is the operand of a go statement: its
	// body always starts on a fresh goroutine.
	GoSpawned bool
	// Out and In are the node's edges, in build order (deterministic).
	Out []*Edge
	In  []*Edge

	litIndex  int
	litCount  int
	immCalled bool
}

// Name renders the node for diagnostics: "kernel.makeReady",
// "(*kernel.Kernel).preempt", or "kernel.NewThread$2" for the second literal
// created inside NewThread. Full import paths are shortened to the package
// name so findings stay readable.
func (n *Node) Name() string {
	if n.Func != nil {
		s := n.Func.FullName()
		if p := n.Func.Pkg(); p != nil && p.Path() != p.Name() {
			s = strings.ReplaceAll(s, p.Path()+".", p.Name()+".")
		}
		return s
	}
	return n.Parent.Name() + "$" + strconv.Itoa(n.litIndex)
}

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// A Graph is the call graph of one loaded package set.
type Graph struct {
	// Nodes lists every function body in deterministic (package, position)
	// order.
	Nodes []*Node

	byFunc map[string]*Node
	byLit  map[*ast.FuncLit]*Node
}

// funcKey names a declared function stably across type-checking universes.
// The loader type-checks each package from source but resolves its imports
// from export data, so the *types.Func a caller sees for a cross-package
// callee is a different object than the one created at the callee's own
// declaration — pointer identity does not hold. FullName (import path plus
// receiver-qualified name) does. The one ambiguity is multiple func init()
// declarations sharing a name; init is uncallable, so no edge resolution
// ever looks one up.
func funcKey(fn *types.Func) string { return fn.Origin().FullName() }

// NodeFor returns the node of a declared function, resolving generic
// instantiations to their origin declaration, or nil if fn's body is not in
// the loaded set.
func (g *Graph) NodeFor(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.byFunc[funcKey(fn)]
}

// LitNode returns the node of a function literal, or nil.
func (g *Graph) LitNode(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// CallerPath returns a shortest direct-invocation chain ending at n — the
// callers walked over Static/Go/Defer/Ref edges up to a body nothing in the
// loaded set invokes directly — for "how is this reached" diagnostics. The
// result starts at that root and ends at n; a node with no direct callers
// yields just [n].
func (g *Graph) CallerPath(n *Node) []*Node {
	type item struct {
		node *Node
		next *item
	}
	visited := map[*Node]bool{n: true}
	queue := []*item{{node: n}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		var callers []*Node
		for _, e := range it.node.In {
			//rtseed:partial-ok path reconstruction walks the direct tiers only; Interface/Dynamic edges over-approximate
			switch e.Kind {
			case Static, Go, Defer, Ref:
				if !visited[e.Caller] {
					callers = append(callers, e.Caller)
				}
			}
		}
		if len(callers) == 0 {
			// Root reached: unwind the chain.
			var path []*Node
			for x := it; x != nil; x = x.next {
				path = append(path, x.node)
			}
			return path
		}
		for _, c := range callers {
			visited[c] = true
			queue = append(queue, &item{node: c, next: it})
		}
	}
	return []*Node{n}
}

// FormatPath renders a caller path as "a → b → c".
func FormatPath(path []*Node) string {
	parts := make([]string, len(path))
	for i, n := range path {
		parts[i] = n.Name()
	}
	return strings.Join(parts, " → ")
}

// builder accumulates graph state across the construction passes.
type builder struct {
	g *Graph

	// marks tags call expressions reached through go/defer statements.
	marks map[*ast.CallExpr]EdgeKind
	// callPos records identifiers consumed as static call targets, so the
	// reference scan does not double-count them as address-taken.
	callPos map[*ast.Ident]bool

	dynCalls   []dynCall
	ifaceCalls []ifaceCall
}

type dynCall struct {
	owner *Node
	sig   *types.Signature
	kind  EdgeKind
	pos   token.Pos
}

type ifaceCall struct {
	owner  *Node
	iface  *types.Interface
	method *types.Func
	kind   EdgeKind
	pos    token.Pos
}

// Shared returns the call graph of mp's loaded package set, built once per
// session and reused by every module analyzer in the run (kernelctx,
// waiverdrift, and the summary consumers all need it).
func Shared(mp *lint.ModulePass) *Graph {
	return mp.Shared("callgraph", func() any { return Build(mp.Pkgs) }).(*Graph)
}

// Build constructs the call graph of the given packages.
func Build(pkgs []*lint.Package) *Graph {
	g := &Graph{byFunc: map[string]*Node{}, byLit: map[*ast.FuncLit]*Node{}}
	b := &builder{
		g:       g,
		marks:   map[*ast.CallExpr]EdgeKind{},
		callPos: map[*ast.Ident]bool{},
	}

	// Pass 1: a node per declared function body, so forward references
	// resolve no matter the file order.
	var declNodes []*Node
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Pkg: pkg, Func: fn, Decl: decl}
				g.byFunc[funcKey(fn)] = n
				g.Nodes = append(g.Nodes, n)
				declNodes = append(declNodes, n)
			}
		}
	}

	// Pass 2: walk every body, creating literal nodes and the direct
	// (Static/Go/Defer) and Ref edges; dynamic and interface call sites are
	// collected for the conservative passes below.
	for _, n := range declNodes {
		b.walkBody(n, n.Decl.Body)
	}

	// Pass 3: conservative resolution. Interface calls go to every loaded
	// implementation; dynamic calls go to every address-taken body with an
	// identical signature.
	b.resolveInterfaceCalls(pkgs)
	b.resolveDynamicCalls()
	return g
}

// walkBody attributes everything inside body to owner, descending into
// nested literals with the literal's node as the new owner.
func (b *builder) walkBody(owner *Node, body ast.Node) {
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			lit := b.litNode(owner, x)
			b.walkBody(lit, x.Body)
			return false
		case *ast.GoStmt:
			b.marks[x.Call] = Go
		case *ast.DeferStmt:
			b.marks[x.Call] = Defer
		case *ast.CallExpr:
			b.call(owner, x)
		case *ast.Ident:
			b.ref(owner, x)
		}
		return true
	})
}

// litNode creates (once) the node of a literal owned by parent.
func (b *builder) litNode(parent *Node, lit *ast.FuncLit) *Node {
	if n := b.g.byLit[lit]; n != nil {
		return n
	}
	parent.litCount++
	n := &Node{Pkg: parent.Pkg, Lit: lit, Parent: parent, litIndex: parent.litCount}
	b.g.byLit[lit] = n
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// call classifies one call expression and records the matching edge or
// deferred resolution request.
func (b *builder) call(owner *Node, call *ast.CallExpr) {
	kind := b.marks[call]
	if kind == 0 {
		kind = Static
	}
	info := owner.Pkg.TypesInfo
	fun := ast.Unparen(call.Fun)

	// Immediately-invoked literal.
	if lit, ok := fun.(*ast.FuncLit); ok {
		n := b.litNode(owner, lit)
		n.immCalled = true
		if kind == Go {
			n.GoSpawned = true
		}
		b.edge(owner, n, kind, call.Pos())
		return
	}

	// Builtins and conversions are not calls into function bodies.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return
	}

	// Peel generic instantiation syntax f[T](...).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}

	var callee *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		callee = f
	case *ast.SelectorExpr:
		callee = f.Sel
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				b.callPos[f.Sel] = true
				b.ifaceCalls = append(b.ifaceCalls, ifaceCall{
					owner: owner, iface: iface, method: sel.Obj().(*types.Func), kind: kind, pos: call.Pos(),
				})
				return
			}
		}
	}
	if callee != nil {
		if fn, ok := info.Uses[callee].(*types.Func); ok {
			b.callPos[callee] = true
			if target := b.g.NodeFor(fn); target != nil {
				b.edge(owner, target, kind, call.Pos())
			}
			return
		}
	}

	// A call through a func-typed value: resolve by signature later, once
	// the address-taken set is complete.
	if tv, ok := info.Types[call.Fun]; ok && tv.Type != nil {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			b.dynCalls = append(b.dynCalls, dynCall{owner: owner, sig: sig, kind: kind, pos: call.Pos()})
		}
	}
}

// ref records a function or method referenced as a value.
func (b *builder) ref(owner *Node, id *ast.Ident) {
	if b.callPos[id] {
		return
	}
	fn, ok := owner.Pkg.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return
	}
	if target := b.g.NodeFor(fn); target != nil {
		b.edge(owner, target, Ref, id.Pos())
	}
}

func (b *builder) edge(caller, callee *Node, kind EdgeKind, pos token.Pos) {
	e := &Edge{Caller: caller, Callee: callee, Kind: kind, Pos: pos}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// resolveInterfaceCalls adds an Interface edge from each interface call site
// to the matching method of every loaded concrete type implementing the
// interface.
func (b *builder) resolveInterfaceCalls(pkgs []*lint.Package) {
	if len(b.ifaceCalls) == 0 {
		return
	}
	// The pointer method set includes the value method set, so one method
	// set per type, of *T, covers both receiver flavors.
	var ptrs []types.Type
	var msets []*types.MethodSet
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if ok && !tn.IsAlias() {
				if _, isIface := tn.Type().Underlying().(*types.Interface); !isIface {
					pt := types.NewPointer(tn.Type())
					ptrs = append(ptrs, pt)
					msets = append(msets, types.NewMethodSet(pt))
				}
			}
		}
	}
	for _, ic := range b.ifaceCalls {
		for i, pt := range ptrs {
			if !implements(pt, msets[i], ic.iface) {
				continue
			}
			sel := msets[i].Lookup(ic.method.Pkg(), ic.method.Name())
			if sel == nil {
				continue
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				if target := b.g.NodeFor(fn); target != nil {
					b.edge(ic.owner, target, Interface, ic.pos)
				}
			}
		}
	}
}

// implements reports whether pt, whose method set is mset, implements iface.
// types.Implements alone misses implementations in another package: the
// loader type-checks each package from source but resolves its imports from
// export data, so a signature naming a type of a third package (a Body's
// Step taking *kernel.TCB) holds a different type object at the call site
// than in the implementing package — pointer identity fails, as it does for
// funcKey. Matching each method by name and by its signature printed with
// full package paths holds in both universes.
func implements(pt types.Type, mset *types.MethodSet, iface *types.Interface) bool {
	if types.Implements(pt, iface) {
		return true
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		sel := mset.Lookup(m.Pkg(), m.Name())
		if sel == nil || sigKey(sel.Obj().Type().(*types.Signature)) != sigKey(m.Type().(*types.Signature)) {
			return false
		}
	}
	return true
}

// sigKey prints a signature's parameter and result types with full package
// paths, leaving out the receiver and the parameter names, which differ
// freely between an interface method and its implementations.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(tup.At(i).Type(), nil))
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// resolveDynamicCalls adds a Dynamic edge from each func-value call site to
// every address-taken body whose signature is identical to the callee type.
func (b *builder) resolveDynamicCalls() {
	if len(b.dynCalls) == 0 {
		return
	}
	// Address-taken set: every Ref target plus every literal that is not
	// exclusively immediately invoked.
	var taken []*Node
	seen := map[*Node]bool{}
	for _, n := range b.g.Nodes {
		if n.Lit != nil && !n.immCalled && !seen[n] {
			seen[n] = true
			taken = append(taken, n)
		}
		for _, e := range n.Out {
			if e.Kind == Ref && !seen[e.Callee] {
				seen[e.Callee] = true
				taken = append(taken, e.Callee)
			}
		}
	}
	for _, dc := range b.dynCalls {
		want := stripRecv(dc.sig)
		for _, t := range taken {
			if types.Identical(want, stripRecv(t.signature())) {
				b.edge(dc.owner, t, Dynamic, dc.pos)
			}
		}
	}
}

// signature returns the node's function signature.
func (n *Node) signature() *types.Signature {
	if n.Func != nil {
		return n.Func.Type().(*types.Signature)
	}
	if tv, ok := n.Pkg.TypesInfo.Types[n.Lit]; ok && tv.Type != nil {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			return sig
		}
	}
	return types.NewSignatureType(nil, nil, nil, nil, nil, false)
}

// stripRecv drops the receiver so a method and the func value derived from
// it compare identical.
func stripRecv(sig *types.Signature) *types.Signature {
	if sig.Recv() == nil {
		return sig
	}
	return types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
}
