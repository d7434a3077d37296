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
// tensors are merged by (s1·s2)⊗m, and comparisons of two constants are
// decided. The form is closed under taking children and under regrouping
// the children of a sum or product, and Simplify is the identity on it
// (Simplify is idempotent) — the invariant Restrict and the compilers
// rest on: an expression in simplified form never needs to be walked by
// Simplify again.

// Simplify performs semiring-aware normalisation of an arbitrary
// well-formed expression into simplified form: flattening of nested
// sums/products, constant folding and the unit laws above. It preserves
// the distribution of the expression under any valuation into s. The
// compilers call it once on the expression they are handed and on the few
// sub-expressions they build themselves (factoring residuals, pruned
// comparisons); Shannon substitution keeps the form through Restrict.
func Simplify(e Expr, s algebra.Semiring) Expr {
	switch n := e.(type) {
	case Var, Const, MConst:
		return e
	case Add:
		return foldAdd(simplifyAll(n.Terms, s), s)
	case Mul:
		return foldMul(simplifyAll(n.Factors, s), s)
	case Tensor:
		return foldTensor(n.Agg, Simplify(n.Scalar, s), Simplify(n.Mod, s), s)
	case AggSum:
		return foldAggSum(n.Agg, simplifyAll(n.Terms, s))
	case Cmp:
		return foldCmp(n.Th, Simplify(n.L, s), Simplify(n.R, s), s)
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}

func simplifyAll(es []Expr, s algebra.Semiring) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = Simplify(e, s)
	}
	return out
}

// Restrict returns the cofactor Φ|x←v of Eq. (10) in simplified form: e
// with every occurrence of variable x replaced by the semiring constant
// v, renormalised. e must be in simplified form; the result is then
// structurally equal (and hash-equal) to Simplify of the plain
// substitution, but is computed in one traversal that rebuilds only the
// paths from the root to the occurrences of x. Every sub-tree that does
// not mention x is returned as is — pointer-shared, cached hash intact,
// no allocation — so restricting a variable that e does not mention
// allocates nothing.
func Restrict(e Expr, x VarID, v value.V, s algebra.Semiring) Expr {
	out, _ := restrict(e, x, v, s)
	return out
}

// restrict reports whether e mentioned x. An unchanged node is returned
// as the interface value it arrived in, never re-boxed.
func restrict(e Expr, x VarID, v value.V, s algebra.Semiring) (Expr, bool) {
	switch n := e.(type) {
	case Var:
		if n.ID() == x {
			return Const{v}, true
		}
		return e, false
	case Const, MConst:
		return e, false
	case Add:
		if ts, changed := restrictAll(n.Terms, x, v, s); changed {
			return foldAdd(ts, s), true
		}
		return e, false
	case Mul:
		if fs, changed := restrictAll(n.Factors, x, v, s); changed {
			return foldMul(fs, s), true
		}
		return e, false
	case Tensor:
		sc, c1 := restrict(n.Scalar, x, v, s)
		mod, c2 := restrict(n.Mod, x, v, s)
		if !c1 && !c2 {
			return e, false
		}
		return foldTensor(n.Agg, sc, mod, s), true
	case AggSum:
		if ts, changed := restrictAll(n.Terms, x, v, s); changed {
			return foldAggSum(n.Agg, ts), true
		}
		return e, false
	case Cmp:
		l, c1 := restrict(n.L, x, v, s)
		r, c2 := restrict(n.R, x, v, s)
		if !c1 && !c2 {
			return e, false
		}
		return foldCmp(n.Th, l, r, s), true
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}

// restrictAll restricts every element of es, allocating the result only
// once an element changes.
func restrictAll(es []Expr, x VarID, v value.V, s algebra.Semiring) ([]Expr, bool) {
	var out []Expr
	for i, e := range es {
		r, changed := restrict(e, x, v, s)
		if changed && out == nil {
			out = make([]Expr, len(es))
			copy(out, es[:i])
		}
		if out != nil {
			out[i] = r
		}
	}
	return out, out != nil
}

// The fold functions rebuild one node from children that are already in
// simplified form; they are the per-node laws shared by Simplify and
// Restrict. The n-ary folds own the slice they are handed and compact it
// in place: the write position never passes the read position, except
// when a child of the node's own kind is flattened — the output then
// moves to an array of its own first.

func foldAdd(terms []Expr, s algebra.Semiring) Expr {
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
		out = append(out, Const{acc})
	}
	if len(out) == 0 {
		return Const{s.Zero()}
	}
	if len(out) == 1 {
		return out[0]
	}
	return newAdd(out)
}

func foldMul(factors []Expr, s algebra.Semiring) Expr {
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
		return Const{s.Zero()}
	}
	if hasConst && !acc.IsOne() {
		out = append(out, Const{acc})
	}
	if len(out) == 0 {
		return Const{s.One()}
	}
	if len(out) == 1 {
		return out[0]
	}
	return newMul(out)
}

func foldTensor(agg algebra.Agg, sc, mod Expr, s algebra.Semiring) Expr {
	mo := algebra.MonoidFor(agg)
	if c, ok := sc.(Const); ok {
		if c.V == s.Zero() {
			return MConst{mo.Neutral()}
		}
		if mc, ok := mod.(MConst); ok {
			return MConst{algebra.Action(s, mo, c.V, mc.V)}
		}
		if c.V == s.One() {
			return mod
		}
	}
	if mc, ok := mod.(MConst); ok && mc.V == mo.Neutral() {
		return MConst{mo.Neutral()}
	}
	// (Φ1·…) ⊗ (Ψ ⊗ α) nests flatten via the (s1·s2)⊗m law.
	if inner, ok := mod.(Tensor); ok && sameMonoid(inner.Agg, agg) {
		return Simplify(NewTensor(agg, Product(sc, inner.Scalar), inner.Mod), s)
	}
	return NewTensor(agg, sc, mod)
}

func foldAggSum(agg algebra.Agg, terms []Expr) Expr {
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
		return MConst{mo.Neutral()}
	}
	if len(out) == 1 {
		return out[0]
	}
	return newAggSum(agg, out)
}

func foldCmp(th value.Theta, l, r Expr, s algebra.Semiring) Expr {
	lc, lok := constValue(l)
	rc, rok := constValue(r)
	if lok && rok {
		if th.Apply(lc, rc) {
			return Const{s.One()}
		}
		return Const{s.Zero()}
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
