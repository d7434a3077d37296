package expr

import (
	"fmt"

	"pvcagg/internal/algebra"
	"pvcagg/internal/value"
)

// This file holds the two normalising rewrites of the compilation hot
// path. Both produce expressions in *simplified form*: no sum, product or
// monoid sum has a child of its own kind, constant children are folded
// into at most one trailing constant, the unit laws 0+Φ = Φ, 1·Φ = Φ,
// 0·Φ = 0, 0S⊗m = 0M, 1S⊗m = m, 0M +M α = α have been applied, nested
// tensors are merged by (s1·s2)⊗m, comparisons of two constants are
// decided, and every composite node carries its cached summary (hash,
// occurrence count, signature). The form is closed under taking children
// and under regrouping the children of a sum or product, and Simplify
// returns an expression in it as it is — the same interface value, with
// nothing allocated — the invariant Restrict and the compilers rest on:
// an expression in simplified form never needs to be rebuilt by Simplify
// again. Both rewrites are copy-on-write: they rebuild only the paths
// from the root to what changes and share every other sub-tree.

// Simplify performs semiring-aware normalisation of an arbitrary
// well-formed expression into simplified form: flattening of nested
// sums/products, constant folding and the unit laws above. It preserves
// the distribution of the expression under any valuation into s. An
// expression already in simplified form is returned as it is, allocating
// nothing; otherwise only the nodes on a path to a change are rebuilt. A
// composite node built as a struct literal, which carries no summary,
// counts as a change. The compilers call it once on the expression they
// are handed and on the few sub-expressions they build themselves
// (factoring residuals, pruned comparisons); Shannon substitution keeps
// the form through Restrict.
func Simplify(e Expr, s algebra.Semiring) Expr {
	out, _ := simplify(e, s)
	return out
}

// simplify is Simplify, reporting whether the result differs from e. An
// unchanged node is returned as the interface value it arrived in.
func simplify(e Expr, s algebra.Semiring) (Expr, bool) {
	switch n := e.(type) {
	case Var, Const, MConst:
		return e, false
	case Add:
		terms, changed := simplifyAll(n.Terms, s)
		if !changed && n.h != 0 && addFolded(terms, s) {
			return e, false
		}
		return foldAdd(gift(terms, changed), s, false), true
	case Mul:
		factors, changed := simplifyAll(n.Factors, s)
		if !changed && n.h != 0 && mulFolded(factors, s) {
			return e, false
		}
		return foldMul(gift(factors, changed), s, false), true
	case Tensor:
		sc, c1 := simplify(n.Scalar, s)
		mod, c2 := simplify(n.Mod, s)
		if !c1 && !c2 && n.h != 0 && tensorFolded(n.Agg, sc, mod, s) {
			return e, false
		}
		return foldTensor(n.Agg, sc, mod, s), true
	case AggSum:
		terms, changed := simplifyAll(n.Terms, s)
		if !changed && n.h != 0 && aggSumFolded(n.Agg, terms) {
			return e, false
		}
		return foldAggSum(n.Agg, gift(terms, changed), false), true
	case Cmp:
		l, c1 := simplify(n.L, s)
		r, c2 := simplify(n.R, s)
		if !c1 && !c2 && n.h != 0 && !bothConst(l, r) {
			return e, false
		}
		return foldCmp(n.Th, l, r, s), true
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}

// simplifyAll simplifies every element of es. While none changes it
// allocates nothing and returns es itself; from the first change on it
// builds a fresh slice holding the elements before it and every later
// result, and returns that.
func simplifyAll(es []Expr, s algebra.Semiring) ([]Expr, bool) {
	var out []Expr
	for i, e := range es {
		r, c := simplify(e, s)
		if c && out == nil {
			out = make([]Expr, i, len(es))
			copy(out, es[:i])
		}
		if out != nil {
			out = append(out, r)
		}
	}
	if out == nil {
		return es, false
	}
	return out, true
}

// gift returns children a fold may compact in place and adopt: es itself
// when simplifyAll built it, else a copy, since es is then a node's own.
func gift(es []Expr, fresh bool) []Expr {
	if fresh {
		return es
	}
	return append(make([]Expr, 0, len(es)), es...)
}

// The folded tests say whether the fold of a node's kind, handed its
// children, would rebuild the node exactly — same children in the same
// order, the same constant — so that Simplify may return it as it is.
// They mirror the folds below case for case, and allocate nothing.

// addFolded: foldAdd keeps terms as they are.
func addFolded(terms []Expr, s algebra.Semiring) bool {
	if len(terms) < 2 {
		return false
	}
	last := len(terms) - 1
	for i, t := range terms {
		switch t := t.(type) {
		case Add:
			return false
		case Const:
			acc := s.Add(s.Zero(), t.V)
			if i != last || acc.IsZero() || boxedValue(acc) != t.V {
				return false
			}
		}
	}
	return true
}

// mulFolded: foldMul keeps factors as they are.
func mulFolded(factors []Expr, s algebra.Semiring) bool {
	if len(factors) < 2 {
		return false
	}
	last := len(factors) - 1
	for i, f := range factors {
		switch f := f.(type) {
		case Mul:
			return false
		case Const:
			acc := s.Mul(s.One(), f.V)
			if i != last || acc == s.Zero() || acc.IsOne() || acc != f.V {
				return false
			}
		}
	}
	return true
}

// aggSumFolded: foldAggSum keeps terms as they are.
func aggSumFolded(agg algebra.Agg, terms []Expr) bool {
	if len(terms) < 2 {
		return false
	}
	mo := algebra.MonoidFor(agg)
	last := len(terms) - 1
	for i, t := range terms {
		if a, ok := t.(AggSum); ok && sameMonoid(a.Agg, agg) {
			return false
		}
		if c, ok := t.(MConst); ok {
			acc := mo.Combine(mo.Neutral(), c.V)
			if i != last || acc == mo.Neutral() || acc != c.V {
				return false
			}
		}
	}
	return true
}

// tensorFolded: foldTensor rebuilds sc ⊗ mod as it is.
func tensorFolded(agg algebra.Agg, sc, mod Expr, s algebra.Semiring) bool {
	if c, ok := sc.(Const); ok {
		if _, ok := mod.(MConst); ok || c.V == s.Zero() || c.V == s.One() {
			return false
		}
	}
	if mc, ok := mod.(MConst); ok && mc.V == algebra.MonoidFor(agg).Neutral() {
		return false
	}
	inner, ok := mod.(Tensor)
	return !ok || !sameMonoid(inner.Agg, agg)
}

// bothConst: foldCmp decides [l θ r].
func bothConst(l, r Expr) bool {
	_, lok := constValue(l)
	_, rok := constValue(r)
	return lok && rok
}

// Restrict returns the cofactor Φ|x←v of Eq. (10) in simplified form: e
// with every occurrence of variable x replaced by the semiring constant
// v, renormalised. e must be in simplified form; the result is then
// structurally equal (and hash-equal) to Simplify of the plain
// substitution, but is computed in one traversal that rebuilds only the
// paths from the root to the occurrences of x. Every sub-tree whose
// signature lacks x's bit is returned as is without being entered —
// pointer-shared, cached hash intact, no allocation — so restricting a
// variable that e does not mention allocates nothing.
//
// This form uses a Scratch of its own; a caller that restricts in a loop
// keeps one and calls its method.
func Restrict(e Expr, x VarID, v value.V, s algebra.Semiring) Expr {
	var sc Scratch
	return sc.Restrict(e, x, v, s)
}

// Scratch is the working memory of Restrict: a stack on which the
// restricted children of every n-ary node on a path to x are collected
// and folded, so that a node is allocated only if it survives the fold,
// and then at its final length. The zero value is ready; a Scratch may be
// reused for any number of calls, one at a time. No result of Restrict
// refers to it: children are copied out of the stack before a node is
// built over them.
type Scratch struct{ stack []Expr }

// Restrict is the package-level Restrict on this scratch.
func (sc *Scratch) Restrict(e Expr, x VarID, v value.V, s algebra.Semiring) Expr {
	r := restrictor{x: x, bit: varBit(x), c: semiringConst(v), s: s, stack: sc.stack[:0]}
	out, _ := r.restrict(e)
	sc.stack = r.stack[:0]
	return out
}

// Release drops the expressions the stack still points to, keeping its
// capacity: for a Scratch that outlives the expressions it worked on.
func (sc *Scratch) Release() { clear(sc.stack[:cap(sc.stack)]) }

// restrictor is one Restrict call: x, its signature bit, the constant
// boxed once, and the scratch stack. A frame is stack[base:]; frames of
// children lie above their parent's and are popped before it is folded,
// and a frame is addressed by its base index, so the stack may move when
// it grows.
type restrictor struct {
	x     VarID
	bit   uint64
	c     Expr
	s     algebra.Semiring
	stack []Expr
}

// restrict reports whether e mentioned x. An unchanged node is returned
// as the interface value it arrived in, never re-boxed.
func (r *restrictor) restrict(e Expr) (Expr, bool) {
	if cachedSig(e)&r.bit == 0 { // constants, and sub-trees known not to mention x
		return e, false
	}
	switch n := e.(type) {
	case Var:
		if n.ID() == r.x {
			return r.c, true
		}
		return e, false
	case Add:
		base, changed := r.restrictAll(n.Terms)
		if !changed {
			return e, false
		}
		out := foldAdd(r.stack[base:], r.s, true)
		r.stack = r.stack[:base]
		return out, true
	case Mul:
		base, changed := r.restrictAll(n.Factors)
		if !changed {
			return e, false
		}
		out := foldMul(r.stack[base:], r.s, true)
		r.stack = r.stack[:base]
		return out, true
	case Tensor:
		sc, c1 := r.restrict(n.Scalar)
		mod, c2 := r.restrict(n.Mod)
		if !c1 && !c2 {
			return e, false
		}
		return foldTensor(n.Agg, sc, mod, r.s), true
	case AggSum:
		base, changed := r.restrictAll(n.Terms)
		if !changed {
			return e, false
		}
		out := foldAggSum(n.Agg, r.stack[base:], true)
		r.stack = r.stack[:base]
		return out, true
	case Cmp:
		lhs, c1 := r.restrict(n.L)
		rhs, c2 := r.restrict(n.R)
		if !c1 && !c2 {
			return e, false
		}
		return foldCmp(n.Th, lhs, rhs, r.s), true
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}

// restrictAll restricts every element of es. Once an element changes it
// opens a frame holding the elements before it, and pushes every later
// result; it returns the frame's base.
func (r *restrictor) restrictAll(es []Expr) (base int, changed bool) {
	base = -1
	for i, e := range es {
		out, c := r.restrict(e)
		if c && base < 0 {
			base = len(r.stack)
			r.stack = append(r.stack, es[:i]...)
		}
		if base >= 0 {
			r.stack = append(r.stack, out)
		}
	}
	return base, base >= 0
}

// Boxed constants: the integers 0 and 1 — 0S and 1S of both semirings —
// and every monoid's neutral element are boxed once, here, and every fold
// that produces one of them returns that box.
var (
	constZero    Expr = Const{value.Int(0)}
	constOne     Expr = Const{value.Int(1)}
	neutralConst      = func() (t [algebra.Count + 1]Expr) {
		for agg := range t {
			t[agg] = MConst{algebra.MonoidFor(algebra.Agg(agg)).Neutral()}
		}
		return t
	}()
)

// boxedValue is the value of the Const semiringConst(v) returns.
func boxedValue(v value.V) value.V {
	switch {
	case v.IsZero():
		return value.Int(0)
	case v.IsOne():
		return value.Int(1)
	}
	return v
}

// semiringConst boxes the semiring constant v.
func semiringConst(v value.V) Expr {
	switch {
	case v.IsZero():
		return constZero
	case v.IsOne():
		return constOne
	}
	return Const{v}
}

// The fold functions rebuild one node from children that are already in
// simplified form; they are the per-node laws shared by Simplify and
// Restrict. The n-ary folds compact the slice they are handed in place:
// the write position never passes the read position, except when a child
// of the node's own kind is flattened — the output then moves to an array
// of its own first. With borrowed unset the slice is the caller's gift
// and becomes the node's children; with borrowed set it is a frame of a
// Scratch, and a node that survives gets a copy at its final length.

func foldAdd(terms []Expr, s algebra.Semiring, borrowed bool) Expr {
	out := terms[:0]
	acc := s.Zero()
	hasConst, moved := false, false
	for _, t := range terms {
		switch t := t.(type) {
		case Add:
			if !moved {
				out = append(make([]Expr, 0, len(terms)-1+len(t.Terms)), out...)
				moved = true
			}
			for _, tt := range t.Terms {
				if c, ok := tt.(Const); ok {
					acc = s.Add(acc, c.V)
					hasConst = true
				} else {
					out = append(out, tt)
				}
			}
		case Const:
			acc = s.Add(acc, t.V)
			hasConst = true
		default:
			out = append(out, t)
		}
	}
	if hasConst && !acc.IsZero() {
		out = append(out, semiringConst(acc))
	}
	if len(out) == 0 {
		return semiringConst(s.Zero())
	}
	if len(out) == 1 {
		return out[0]
	}
	return newAdd(owned(out, borrowed && !moved))
}

func foldMul(factors []Expr, s algebra.Semiring, borrowed bool) Expr {
	out := factors[:0]
	acc := s.One()
	hasConst, moved := false, false
	for _, f := range factors {
		switch f := f.(type) {
		case Mul:
			if !moved {
				out = append(make([]Expr, 0, len(factors)-1+len(f.Factors)), out...)
				moved = true
			}
			for _, ff := range f.Factors {
				if c, ok := ff.(Const); ok {
					acc = s.Mul(acc, c.V)
					hasConst = true
				} else {
					out = append(out, ff)
				}
			}
		case Const:
			acc = s.Mul(acc, f.V)
			hasConst = true
		default:
			out = append(out, f)
		}
	}
	if acc == s.Zero() && hasConst {
		return semiringConst(acc)
	}
	if hasConst && !acc.IsOne() {
		out = append(out, Const{acc})
	}
	if len(out) == 0 {
		return semiringConst(s.One())
	}
	if len(out) == 1 {
		return out[0]
	}
	return newMul(owned(out, borrowed && !moved))
}

// owned returns the children of a surviving n-ary node: out itself, or a
// copy of exactly its length when out lies in a scratch frame.
func owned(out []Expr, inFrame bool) []Expr {
	if !inFrame {
		return out
	}
	return append(make([]Expr, 0, len(out)), out...)
}

func foldTensor(agg algebra.Agg, sc, mod Expr, s algebra.Semiring) Expr {
	mo := algebra.MonoidFor(agg)
	if c, ok := sc.(Const); ok {
		if c.V == s.Zero() {
			return neutralConst[agg]
		}
		if c.V == s.One() {
			return mod
		}
		if mc, ok := mod.(MConst); ok {
			return MConst{algebra.Action(s, mo, c.V, mc.V)}
		}
	}
	if mc, ok := mod.(MConst); ok && mc.V == mo.Neutral() {
		return neutralConst[agg]
	}
	// (Φ1·…) ⊗ (Ψ ⊗ α) nests flatten via the (s1·s2)⊗m law.
	if inner, ok := mod.(Tensor); ok && sameMonoid(inner.Agg, agg) {
		return Simplify(NewTensor(agg, Product(sc, inner.Scalar), inner.Mod), s)
	}
	return NewTensor(agg, sc, mod)
}

func foldAggSum(agg algebra.Agg, terms []Expr, borrowed bool) Expr {
	mo := algebra.MonoidFor(agg)
	out := terms[:0]
	acc := mo.Neutral()
	hasConst, moved := false, false
	for _, t := range terms {
		if a, ok := t.(AggSum); ok && sameMonoid(a.Agg, agg) {
			if !moved {
				out = append(make([]Expr, 0, len(terms)-1+len(a.Terms)), out...)
				moved = true
			}
			for _, tt := range a.Terms {
				if c, ok := tt.(MConst); ok {
					acc = mo.Combine(acc, c.V)
					hasConst = true
				} else {
					out = append(out, tt)
				}
			}
			continue
		}
		if c, ok := t.(MConst); ok {
			acc = mo.Combine(acc, c.V)
			hasConst = true
			continue
		}
		out = append(out, t)
	}
	if hasConst && acc != mo.Neutral() {
		out = append(out, MConst{acc})
	}
	if len(out) == 0 {
		return neutralConst[agg]
	}
	if len(out) == 1 {
		return out[0]
	}
	return newAggSum(agg, owned(out, borrowed && !moved))
}

func foldCmp(th value.Theta, l, r Expr, s algebra.Semiring) Expr {
	lc, lok := constValue(l)
	rc, rok := constValue(r)
	if lok && rok {
		if th.Apply(lc, rc) {
			return semiringConst(s.One())
		}
		return semiringConst(s.Zero())
	}
	return newCmp(th, l, r)
}

func constValue(e Expr) (value.V, bool) {
	switch n := e.(type) {
	case Const:
		return n.V, true
	case MConst:
		return n.V, true
	default:
		return value.V{}, false
	}
}
