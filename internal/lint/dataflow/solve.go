package dataflow

import "go/ast"

// Problem defines a forward dataflow problem over a CFG for a state type S.
// States are treated as values owned by the solver: Copy must produce an
// independent state, Join must merge src into dst in place and report
// whether dst changed, and Node must apply one node's transfer effect to s
// in place. Entry produces the state at function entry (typically binding
// parameters).
type Problem[S any] struct {
	Entry func() S
	Copy  func(S) S
	Join  func(dst, src S) bool
	Node  func(n ast.Node, s S)
}

// Forward solves the problem with a worklist iteration and returns the
// fixed-point IN state of every block. The iteration is deterministic: the
// worklist is processed in block-index order, so analyzers built on it
// report findings in a stable order.
func Forward[S any](c *CFG, p Problem[S]) map[*Block]S {
	in := make(map[*Block]S, len(c.Blocks))
	in[c.Entry] = p.Entry()

	// Deterministic worklist: a boolean membership set scanned in index
	// order. CFGs here are per-function and small; simplicity beats a
	// priority queue.
	pending := make([]bool, len(c.Blocks))
	pending[c.Entry.Index] = true
	for {
		b := (*Block)(nil)
		for i, p := range pending {
			if p {
				b = c.Blocks[i]
				break
			}
		}
		if b == nil {
			return in
		}
		pending[b.Index] = false

		// A block is only ever pending once it has an IN state.
		out := p.Copy(in[b])
		for _, n := range b.Nodes {
			p.Node(n, out)
		}
		for _, s := range b.Succs {
			if cur, ok := in[s]; ok {
				if p.Join(cur, out) {
					pending[s.Index] = true
				}
			} else {
				in[s] = p.Copy(out)
				pending[s.Index] = true
			}
		}
	}
}

// Replay re-runs the transfer function over one block from its fixed-point
// IN state, calling visit with the state as it stands *before* each node.
// Analyzers use it to inspect per-node facts (the solver itself only keeps
// per-block states). The state passed to visit is live — visit must not
// mutate it.
func Replay[S any](b *Block, in S, p Problem[S], visit func(n ast.Node, s S)) {
	s := p.Copy(in)
	for _, n := range b.Nodes {
		visit(n, s)
		p.Node(n, s)
	}
}
