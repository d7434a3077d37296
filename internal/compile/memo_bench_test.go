package compile

import (
	"fmt"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// BenchmarkCompileMemo measures the memoisation hot path: a Shannon-heavy
// instance whose sub-problems recur massively, so compile time is
// dominated by memo lookups. The hash-consed memo keys this benchmark
// exercises replaced O(subtree) canonical-string rendering per lookup;
// run with -benchmem to see the allocation profile.
func BenchmarkCompileMemo(b *testing.B) {
	reg := vars.NewRegistry()
	for i := 0; i < 10; i++ {
		reg.DeclareBool(fmt.Sprintf("bm%d", i), 0.5)
	}
	// [COUNT(clauses) <= c]: every Shannon branch re-derives shifted
	// copies of the same residual sums.
	terms := make([]expr.Expr, 0, 25)
	for i := 0; i < 25; i++ {
		cl := expr.Product(expr.V(fmt.Sprintf("bm%d", i%10)), expr.V(fmt.Sprintf("bm%d", (i+3)%10)))
		terms = append(terms, expr.Scale(algebra.Count, cl, value.Int(1)))
	}
	e := expr.Compare(value.EQ, expr.MSum(algebra.Count, terms...), expr.MConst{V: value.Int(5)})
	s := algebra.SemiringFor(algebra.Boolean)

	b.Run("memo=on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(s, reg, Options{MaxNodes: 20_000_000}).Compile(e); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memo=off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(s, reg, Options{DisableMemo: true, MaxNodes: 20_000_000}).Compile(e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompileShannon compiles one §7.1 instance at the repository
// benchmark's parameters (expr-exact: 11 variables, three clauses of three
// literals, 35 terms): most of its steps are Shannon expansions, so ns/op,
// B/op and allocs/op are what one cofactor and one independence partition
// cost.
func BenchmarkCompileShannon(b *testing.B) {
	c := eq11{numVars: 11, clauses: 3, literals: 3, maxV: 200, l: 35, agg: algebra.Sum, theta: value.LE, c: 1600}.instance("bench", 1007)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(c.s, c.reg, Options{}).Compile(c.e); err != nil {
			b.Fatal(err)
		}
	}
}

// SelfJoinPairs is Σ_{i<j} xi·xj over n Boolean variables of marginal p:
// the annotation of one result tuple of tpch-agg's self-join template
// (two of a supplier's parts), which the repository benchmark runs
// anytime. It is exported for approx_test.go.
func SelfJoinPairs(n int, p float64) (*vars.Registry, expr.Expr) {
	reg := vars.NewRegistry()
	xs := make([]expr.Expr, n)
	for i := range xs {
		name := fmt.Sprintf("sj%d", i)
		reg.DeclareBool(name, p)
		xs[i] = expr.V(name)
	}
	var terms []expr.Expr
	for i := range xs {
		for j := i + 1; j < n; j++ {
			terms = append(terms, expr.Product(xs[i], xs[j]))
		}
	}
	return reg, expr.Sum(terms...)
}

// BenchmarkApproxPairs runs one self-join annotation (SelfJoinPairs(15,
// 0.9)) anytime at ε = 0.05, the repository benchmark's setting, beside
// its exact compilation and evaluation: the ratio of the two is what an
// anytime answer costs against an exact one on the shape that asks for
// it.
func BenchmarkApproxPairs(b *testing.B) {
	reg, e := SelfJoinPairs(15, 0.9)
	s := algebra.SemiringFor(algebra.Boolean)
	b.Run("anytime", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := Approximate(s, reg, e, ApproxOptions{Eps: 0.05}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := New(s, reg, Options{}).Compile(e)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
