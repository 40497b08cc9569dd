package dataflow

import (
	"go/ast"
	"go/types"
)

// Key names one abstract storage location: a declared object, optionally
// narrowed to a field path below it ("" for the object itself, ".f" or
// ".f.g" for fields). Keys are comparable, so they index lattice states.
type Key struct {
	Obj  types.Object
	Path string
}

// under reports whether k names a field strictly below parent (x.f and
// x.f.g are under x; x.fg is not under x.f).
func (k Key) under(parent Key) bool {
	return k.Obj == parent.Obj && len(k.Path) > len(parent.Path) &&
		k.Path[:len(parent.Path)] == parent.Path && k.Path[len(parent.Path)] == '.'
}

// KeyOf resolves an expression to a storage key: an identifier, or a chain
// of field selections rooted at one (x, x.f, x.f.g). Parens, &x and *x are
// transparent. The second result is false for anything else (calls,
// indexing, literals), which analyses treat as an unnamed value.
func KeyOf(info *types.Info, e ast.Expr) (Key, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return KeyOf(info, e.X)
	case *ast.StarExpr:
		return KeyOf(info, e.X)
	case *ast.UnaryExpr:
		return KeyOf(info, e.X)
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return Key{}, false
		}
		if _, ok := obj.(*types.Var); !ok {
			return Key{}, false
		}
		return Key{Obj: obj}, true
	case *ast.SelectorExpr:
		// Only *field* selections extend a path; method values do not.
		sel, ok := info.Selections[e]
		if !ok || sel.Kind() != types.FieldVal {
			return Key{}, false
		}
		base, ok := KeyOf(info, e.X)
		if !ok {
			return Key{}, false
		}
		return Key{Obj: base.Obj, Path: base.Path + "." + e.Sel.Name}, true
	}
	return Key{}, false
}

// State is a taint/abstract-domain lattice state: a map from storage keys
// to analyzer-specific labels. The zero map is the bottom state.
type State[L any] map[Key]L

// Get looks up the label of an expression's key, falling back to enclosing
// prefixes: if x is labeled, x.f inherits the label. The second result is
// false when neither the key nor any prefix carries a label.
func (s State[L]) Get(info *types.Info, e ast.Expr) (L, bool) {
	var zero L
	k, ok := KeyOf(info, e)
	if !ok {
		return zero, false
	}
	for {
		if l, ok := s[k]; ok {
			return l, true
		}
		if k.Path == "" {
			return zero, false
		}
		// Drop the last path segment.
		i := len(k.Path) - 1
		for i > 0 && k.Path[i] != '.' {
			i--
		}
		k.Path = k.Path[:i]
	}
}

// Below returns the label of a key strictly under an expression's key: a
// labeled x.f makes x's value carry the label. Of several such keys it
// picks the shortest path, then the lexically first, so the witness is
// deterministic. The second result is false when no key under it carries a
// label.
func (s State[L]) Below(info *types.Info, e ast.Expr) (L, bool) {
	var found L
	k, keyable := KeyOf(info, e)
	if !keyable {
		return found, false
	}
	best, ok := "", false
	for other, l := range s {
		if other.under(k) && (!ok || len(other.Path) < len(best) ||
			len(other.Path) == len(best) && other.Path < best) {
			best, found, ok = other.Path, l, true
		}
	}
	return found, ok
}

// Set labels an expression's key, reporting whether the expression was
// keyable at all.
func (s State[L]) Set(info *types.Info, e ast.Expr, l L) bool {
	k, ok := KeyOf(info, e)
	if !ok {
		return false
	}
	s[k] = l
	return true
}

// Clear removes an expression's key and every key underneath it (x clears
// x.f too).
func (s State[L]) Clear(info *types.Info, e ast.Expr) {
	k, ok := KeyOf(info, e)
	if !ok {
		return
	}
	delete(s, k)
	for other := range s {
		if other.under(k) {
			delete(s, other)
		}
	}
}

// Assign transfers labels for the assignment lhs = rhs. The old labels of
// lhs's key and everything below it are killed (strong update: lint-grade
// precision treats a named location as overwritten). When rhs is keyable,
// its label — or a prefix's — becomes lhs's label, and labels on keys
// *below* rhs are rebased below lhs, so a whole-struct copy carries field
// taint. Reports whether any label was transferred; when rhs is not
// keyable the caller evaluates it by other means.
func (s State[L]) Assign(info *types.Info, lhs, rhs ast.Expr) bool {
	klhs, ok := KeyOf(info, lhs)
	if !ok {
		return false
	}
	krhs, rok := KeyOf(info, rhs)

	// Collect the transfers before clearing: lhs and rhs may overlap.
	type kv struct {
		k Key
		l L
	}
	var moves []kv
	if rok {
		if l, ok := s.Get(info, rhs); ok {
			moves = append(moves, kv{klhs, l})
		}
		for k, l := range s {
			if k.under(krhs) {
				moves = append(moves, kv{Key{Obj: klhs.Obj, Path: klhs.Path + k.Path[len(krhs.Path):]}, l})
			}
		}
	}
	s.Clear(info, lhs)
	for _, m := range moves {
		s[m.k] = m.l
	}
	return len(moves) > 0
}

// Copy returns an independent copy of the state (labels are copied
// shallowly; analyzers use immutable label values).
func (s State[L]) Copy() State[L] {
	out := make(State[L], len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Merge unions src into s, reporting whether s changed. Conflicting labels
// keep the one already in s: labels describe "some path taints this key
// because ...", so any witness is as good as another.
func (s State[L]) Merge(src State[L]) bool {
	changed := false
	for k, v := range src {
		if _, ok := s[k]; !ok {
			s[k] = v
			changed = true
		}
	}
	return changed
}

// ForEachAssign decomposes an assignment-like node into (lhs, rhs) pairs
// and invokes fn for each. Tuple assignments from a single call
// (a, b := f()) pass the call as rhs for every lhs. Var declarations
// without initializers pass a nil rhs. Nodes that are not assignments are
// ignored.
func ForEachAssign(n ast.Node, fn func(lhs, rhs ast.Expr)) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				fn(n.Lhs[i], n.Rhs[i])
			}
		} else if len(n.Rhs) == 1 {
			for _, l := range n.Lhs {
				fn(l, n.Rhs[0])
			}
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				switch {
				case len(vs.Values) == len(vs.Names):
					fn(name, vs.Values[i])
				case len(vs.Values) == 1:
					fn(name, vs.Values[0])
				default:
					fn(name, nil)
				}
			}
		}
	}
}
