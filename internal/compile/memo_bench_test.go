package compile

import (
	"fmt"
	"testing"

	"pvcagg/internal/algebra"
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
