package compile

import (
	"sync"
	"sync/atomic"

	"pvcagg/internal/algebra"
	"pvcagg/internal/dtree"
	"pvcagg/internal/vars"
)

// A Compiler carves the d-tree nodes it creates, and their Parts and
// Branches, from slabs of its own, which Reset reuses for the
// compilations that follow: a compiler in steady state allocates no node.
// The price is the rule Reset states — every tree compiled since the last
// Reset is invalid after it.

// slab hands out values of one type from chunks it keeps across reset.
type slab[T any] struct {
	chunks [][]T
	c, i   int // the chunk in use, and its next free slot
}

// slabChunk is the length of a slab's first chunk; each chunk it adds is
// twice the last, up to slabChunk << slabDoublings.
const (
	slabChunk     = 32
	slabDoublings = 7
)

// take returns a slice of n values with no spare capacity. They are not
// necessarily zero (poisonReset): the caller writes every one before the
// tree is handed out.
func (s *slab[T]) take(n int) []T {
	for ; s.c < len(s.chunks); s.c, s.i = s.c+1, 0 {
		if ch := s.chunks[s.c]; s.i+n <= len(ch) {
			s.i += n
			return ch[s.i-n : s.i : s.i]
		}
	}
	ch := make([]T, max(n, slabChunk<<min(len(s.chunks), slabDoublings)))
	s.chunks = append(s.chunks, ch)
	s.c, s.i = len(s.chunks)-1, n
	return ch[:n:n]
}

// one returns a single value of the slab.
func (s *slab[T]) one() *T { return &s.take(1)[0] }

// reset makes every value taken since the last reset available again,
// clearing it, or, if poison is set, overwriting it with v.
func (s *slab[T]) reset(poison bool, v T) {
	for k, ch := range s.chunks[:min(s.c+1, len(s.chunks))] {
		if k == s.c {
			ch = ch[:s.i]
		}
		if !poison {
			clear(ch)
			continue
		}
		for i := range ch {
			ch[i] = v
		}
	}
	s.c, s.i = 0, 0
}

// nodeSlabs are a Compiler's slabs, one per node type and one each for
// the Parts of ⊕ nodes (and a product's factor groups, before combine
// pairs them) and the Branches of ⊔ nodes.
type nodeSlabs struct {
	vars     slab[dtree.VarLeaf]
	consts   slab[dtree.ConstLeaf]
	pluses   slab[dtree.PlusNode]
	times    slab[dtree.TimesNode]
	tensors  slab[dtree.TensorNode]
	cmps     slab[dtree.CmpNode]
	excls    slab[dtree.ExclusiveNode]
	parts    slab[dtree.Node]
	branches slab[dtree.Branch]
}

// poisonReset, raised by tests only (PoisonResetForTest), has Reset
// overwrite every node it makes available again with one that fails
// evaluation: each child, part and branch points at poisonLeaf, a variable
// no registry declares. A tree held across Reset then fails to evaluate
// (a tree that is one constant leaf reads the constant 0) instead of
// reading the nodes of whatever compiles next.
var poisonReset atomic.Int32

// poisonLeaf is the child, part or branch of every node poisonReset
// overwrites.
var (
	poisonLeaf     = &dtree.VarLeaf{Name: "compile: d-tree node used after its compiler's Reset"}
	poisonParts    = []dtree.Node{poisonLeaf, poisonLeaf}
	poisonBranches = []dtree.Branch{{P: 1, Child: poisonLeaf}}
)

// PoisonResetForTest has every Compiler's Reset overwrite the nodes it
// makes available again with nodes that fail evaluation, until tb's test
// ends.
func PoisonResetForTest(tb interface{ Cleanup(func()) }) {
	poisonReset.Add(1)
	tb.Cleanup(func() { poisonReset.Add(-1) })
}

// reset makes every slab's values available again.
func (n *nodeSlabs) reset() {
	on, x := poisonReset.Load() > 0, dtree.Node(poisonLeaf)
	n.vars.reset(on, *poisonLeaf)
	n.consts.reset(on, dtree.ConstLeaf{})
	n.pluses.reset(on, dtree.PlusNode{Parts: poisonParts})
	n.times.reset(on, dtree.TimesNode{L: x, R: x})
	n.tensors.reset(on, dtree.TensorNode{Scalar: x, Mod: x})
	n.cmps.reset(on, dtree.CmpNode{L: x, R: x})
	n.excls.reset(on, dtree.ExclusiveNode{Var: poisonLeaf.Name, Branches: poisonBranches})
	n.parts.reset(on, x)
	n.branches.reset(on, poisonBranches[0])
}

// pool holds idle compilers: an engine worker's between queries, an
// anytime run's between runs. A Compiler in it has been Reset and holds no
// reference to the query it served.
var pool sync.Pool

// Get returns a Compiler for s, reg and opts: an idle one from the pool,
// rebound (Rebind), or a new one. Give it back with Put.
func Get(s algebra.Semiring, reg *vars.Registry, opts Options) *Compiler {
	if c, ok := pool.Get().(*Compiler); ok {
		c.Rebind(s, reg, opts)
		return c
	}
	return New(s, reg, opts)
}

// Put rebinds c to nothing, which Resets it, and gives it to the pool.
// Neither c nor a tree it compiled may be used afterwards. A compilation
// that panics must not Put its compiler: its memo and slabs are in an
// unknown state.
func Put(c *Compiler) {
	c.Rebind(nil, nil, Options{})
	pool.Put(c)
}
