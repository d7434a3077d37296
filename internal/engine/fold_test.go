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
// under both semirings and every monoid, neutral values included.
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
}
