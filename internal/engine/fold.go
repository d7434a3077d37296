package engine

// Incremental constant folding for the grouping sinks (π, ∪, $).
//
// Figure 4 defines a group's annotation and aggregates as
// Simplify(Sum(e1…en)) / Simplify(MSum(agg, t1…tn)) over its rows;
// building that sum first costs O(rows) memory per group even when every
// annotation is the constant 1S, which is exactly the shape stored TPC-H
// data has. annSum and modSum fold constants into a running accumulator
// at arrival instead, keeping only the non-constant residue, and are
// constructed to reproduce those expressions EXACTLY, node for node:
//
//   - Simplify flattens a simplified Add one level and a simplified Add
//     is never nested and holds at most one trailing Const, so folding
//     per arrival sees the same constants in the same semiring (the
//     operations are associative and commutative on exact values);
//   - non-constant residue terms are appended in identical arrival
//     order;
//   - the emission cases (empty → zero/neutral constant, singleton →
//     the term itself, trailing folded constant only when a constant
//     was seen and differs from the identity) mirror Simplify's
//     branches one for one.
//
// TestFoldMatchesSimplify pins this: with these accumulators in the
// sinks, group state for deterministic (constant-annotated) inputs is
// O(1) while probabilistic inputs retain exactly the expression trees
// the definition gives.

import (
	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/value"
)

// annSum folds a semiring sum of annotations: its result is
// Simplify(Sum(e1…en), s) for the added e1…en.
type annSum struct {
	s        algebra.Semiring
	acc      value.V
	hasConst bool
	terms    []expr.Expr
	n        int
}

func newAnnSum(s algebra.Semiring) *annSum {
	return &annSum{s: s, acc: s.Zero()}
}

func (a *annSum) fold(v value.V) {
	a.acc = a.s.Add(a.acc, v)
	a.hasConst = true
}

func (a *annSum) add(e expr.Expr) {
	a.n++
	if c, ok := e.(expr.Const); ok {
		// Simplify returns a constant as it is.
		a.fold(c.V)
		return
	}
	e = expr.Simplify(e, a.s)
	switch t := e.(type) {
	case expr.Add:
		// A simplified Add's terms are never themselves Add and hold at
		// most one Const, so one level of folding flattens completely.
		for _, tt := range t.Terms {
			if c, ok := tt.(expr.Const); ok {
				a.fold(c.V)
			} else {
				a.terms = append(a.terms, tt)
			}
		}
	case expr.Const:
		a.fold(t.V)
	default:
		a.terms = append(a.terms, e)
	}
}

func (a *annSum) result() expr.Expr {
	terms := a.terms
	if a.hasConst && !a.acc.IsZero() {
		// Full-capacity slice expression: emission must not alias the
		// accumulator's backing array.
		terms = append(terms[:len(terms):len(terms)], expr.Const{V: a.acc})
	}
	if len(terms) == 0 {
		return expr.Const{V: a.s.Zero()}
	}
	if len(terms) == 1 {
		return terms[0]
	}
	return expr.Sum(terms...)
}

// neCond is the $ group annotation, Figure 4's non-emptiness condition:
// Simplify(Compare(≠, Sum(e1…en), 0), s) for the added e1…en.
func (a *annSum) neCond() expr.Expr {
	l := a.result()
	if c, ok := l.(expr.Const); ok {
		if value.NE.Apply(c.V, value.Int(0)) {
			return expr.Const{V: a.s.One()}
		}
		return expr.Const{V: a.s.Zero()}
	}
	return expr.Compare(value.NE, l, expr.CInt(0))
}

// mulAnn folds the annotation of a ⋈/× match: its result is
// Simplify(Product(l, r), s) — l itself, with nothing allocated, when
// both are the semiring's constant 1, as on every match over certain
// data.
func mulAnn(l, r expr.Expr, s algebra.Semiring) expr.Expr {
	if lc, ok := l.(expr.Const); ok && lc.V == s.One() {
		if rc, ok := r.(expr.Const); ok && rc.V == s.One() {
			return l
		}
	}
	return expr.Simplify(expr.Product(l, r), s)
}

// modSum folds one aggregation column of a $ group: its result is
//
//	Simplify(MSum(agg, Scale(agg, ann1, mv1) … Scale(agg, annn, mvn)), s)
//
// for the added (ann, mv) rows — i.e. the semimodule sum ⊕ annᵢ ⊗ mvᵢ.
type modSum struct {
	s        algebra.Semiring
	agg      algebra.Agg
	mo       algebra.Monoid
	acc      value.V
	hasConst bool
	terms    []expr.Expr
}

func newModSum(s algebra.Semiring, agg algebra.Agg) *modSum {
	mo := algebra.MonoidFor(agg)
	return &modSum{s: s, agg: agg, mo: mo, acc: mo.Neutral()}
}

func (m *modSum) fold(v value.V) {
	m.acc = m.mo.Combine(m.acc, v)
	m.hasConst = true
}

// add folds one row, mirroring Simplify's Tensor case over
// Scale(agg, ann, mv) = ann ⊗ mv followed by its AggSum MConst folding.
// A row annotated with the semiring's 1 folds mv itself: 1 ⊗ mv = mv in
// every monoid (Action of 1 is mv for SUM, COUNT, MIN, MAX and PROD).
func (m *modSum) add(ann expr.Expr, mv value.V) {
	if c, ok := ann.(expr.Const); ok && c.V == m.s.One() {
		m.fold(mv)
		return
	}
	sc := expr.Simplify(ann, m.s)
	if c, ok := sc.(expr.Const); ok {
		if c.V == m.s.Zero() {
			m.fold(m.mo.Neutral())
		} else {
			m.fold(algebra.Action(m.s, m.mo, c.V, mv))
		}
		return
	}
	if mv == m.mo.Neutral() {
		m.fold(m.mo.Neutral())
		return
	}
	m.terms = append(m.terms, expr.NewTensor(m.agg, sc, expr.MConst{V: mv}))
}

func (m *modSum) result() expr.Expr {
	terms := m.terms
	if m.hasConst && m.acc != m.mo.Neutral() {
		terms = append(terms[:len(terms):len(terms)], expr.MConst{V: m.acc})
	}
	if len(terms) == 0 {
		return expr.MConst{V: m.mo.Neutral()}
	}
	if len(terms) == 1 {
		return terms[0]
	}
	return expr.MSum(m.agg, terms...)
}
