package engine

import (
	"math/rand"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/value"
)

// TestFoldMatchesSimplify holds the grouping sinks' accumulators to the
// expressions they stand for, node for node: over random rows mixing
// variables, constants (0S and 1S included), sums and products,
//
//	annSum.result = Simplify(Sum(e1…en))
//	annSum.neCond = Simplify([Sum(e1…en) ≠ 0])
//	modSum.result = Simplify(MSum(agg, e1⊗v1 … en⊗vn))
//
// under both semirings and every monoid, neutral values included, and
// over rows annotated 1S, 0S and (under N) 2 alone.
func TestFoldMatchesSimplify(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vars := []expr.Expr{expr.V("fa"), expr.V("fb"), expr.V("fc")}
	maxConst := 1 // constants are semiring elements: {0, 1} under B
	var ann func(depth int) expr.Expr
	ann = func(depth int) expr.Expr {
		switch k := r.Intn(6); {
		case k < 2 || depth == 0:
			return vars[r.Intn(len(vars))]
		case k == 2:
			return expr.CInt(int64(r.Intn(maxConst + 1)))
		case k == 3:
			return expr.Sum(ann(depth-1), ann(depth-1))
		default:
			return expr.Product(ann(depth-1), ann(depth-1))
		}
	}
	aggs := []algebra.Agg{algebra.Sum, algebra.Count, algebra.Min, algebra.Max}
	for _, kind := range []algebra.SemiringKind{algebra.Boolean, algebra.Natural} {
		s := algebra.SemiringFor(kind)
		if kind == algebra.Natural {
			maxConst = 2
		}
		for trial := 0; trial < 400; trial++ {
			agg := aggs[r.Intn(len(aggs))]
			neutral := algebra.MonoidFor(agg).Neutral()
			as, ms := newAnnSum(s), newModSum(s, agg)
			var anns, terms []expr.Expr
			for n := r.Intn(5); n > 0; n-- {
				e, mv := ann(2), value.Int(int64(r.Intn(4)))
				if r.Intn(5) == 0 {
					mv = neutral
				}
				as.add(e)
				ms.add(e, mv)
				anns = append(anns, e)
				terms = append(terms, expr.Scale(agg, e, mv))
			}
			if got, want := as.result(), expr.Simplify(expr.Sum(anns...), s); !expr.Equal(got, want) {
				t.Fatalf("%v: annSum of %v = %s, want %s", kind, anns, got, want)
			}
			if got, want := as.neCond(), expr.Simplify(expr.Compare(value.NE, expr.Sum(anns...), expr.CInt(0)), s); !expr.Equal(got, want) {
				t.Fatalf("%v: neCond of %v = %s, want %s", kind, anns, got, want)
			}
			want := expr.Expr(expr.MConst{V: neutral})
			if len(terms) > 0 {
				want = expr.Simplify(expr.MSum(agg, terms...), s)
			}
			if got := ms.result(); !expr.Equal(got, want) {
				t.Fatalf("%v %v: modSum of %v = %s, want %s", kind, agg, terms, got, want)
			}
		}
	}

	// Constant annotations: the semiring's 1 folds mv without Simplify or
	// Action, and 0 and a Natural 2 take the general path; every monoid,
	// over values that include ±∞, 0, a negative and the neutral value.
	mvs := []value.V{value.Int(-3), value.Int(0), value.Int(1), value.Int(5), value.PosInf(), value.NegInf()}
	for _, kind := range []algebra.SemiringKind{algebra.Boolean, algebra.Natural} {
		s := algebra.SemiringFor(kind)
		consts := []expr.Expr{expr.CInt(1), expr.CInt(0)}
		if kind == algebra.Natural {
			consts = append(consts, expr.CInt(2))
		}
		for _, agg := range []algebra.Agg{algebra.Sum, algebra.Count, algebra.Min, algebra.Max, algebra.Prod} {
			mvs := append(mvs, algebra.MonoidFor(agg).Neutral())
			for _, e := range consts {
				for _, rows := range [][]int{{0}, {1, 3}, {4, 2, 6, 0}, {5, 3, 1}} { // never +∞ with −∞
					as, ms := newAnnSum(s), newModSum(s, agg)
					var anns, terms []expr.Expr
					for _, k := range rows {
						as.add(e)
						ms.add(e, mvs[k])
						anns = append(anns, e)
						terms = append(terms, expr.Scale(agg, e, mvs[k]))
					}
					if got, want := as.result(), expr.Simplify(expr.Sum(anns...), s); !expr.Equal(got, want) {
						t.Errorf("%v: annSum of %v = %s, want %s", kind, anns, got, want)
					}
					if got, want := ms.result(), expr.Simplify(expr.MSum(agg, terms...), s); !expr.Equal(got, want) {
						t.Errorf("%v %v: modSum of %v = %s, want %s", kind, agg, terms, got, want)
					}
				}
			}
		}
	}
}

// TestMulAnnMatchesSimplify holds the ⋈/× annotation fold to the product
// it stands for, node for node: mulAnn(l, r) = Simplify(Product(l, r))
// over constants (0S and 1S included), variables, sums and products,
// simplified or not, under both semirings.
func TestMulAnnMatchesSimplify(t *testing.T) {
	fa, fb := expr.V("fa"), expr.V("fb")
	for _, kind := range []algebra.SemiringKind{algebra.Boolean, algebra.Natural} {
		s := algebra.SemiringFor(kind)
		anns := []expr.Expr{expr.CInt(0), expr.CInt(1), fa, expr.Product(fa, fb), expr.Sum(fa, expr.CInt(1)),
			expr.Sum(fa, expr.CInt(0)), expr.Product(fb, expr.CInt(1))} // the last two not simplified
		if kind == algebra.Natural {
			anns = append(anns, expr.CInt(2))
		}
		for _, l := range anns {
			for _, r := range anns {
				if got, want := mulAnn(l, r, s), expr.Simplify(expr.Product(l, r), s); !expr.Equal(got, want) {
					t.Errorf("%v: mulAnn(%s, %s) = %s, want %s", kind, l, r, got, want)
				}
			}
		}
	}
}
