package compile

import (
	"context"
	"fmt"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// Proposition 2: for MIN/MAX semimodule expressions, the size of every
// distribution is bounded by the number of distinct monoid values at the
// leaves (+1 for the neutral element), because the selective monoid never
// creates new values.
func TestProposition2SelectiveMonoidBound(t *testing.T) {
	for _, agg := range []algebra.Agg{algebra.Min, algebra.Max} {
		reg := vars.NewRegistry()
		n := 30
		terms := make([]expr.Expr, n)
		distinct := 5
		for i := 0; i < n; i++ {
			x := fmt.Sprintf("x%d", i)
			reg.DeclareBool(x, 0.5)
			terms[i] = expr.Scale(agg, expr.V(x), value.Int(int64(10*(i%distinct))))
		}
		e := expr.MSum(agg, terms...)
		s := algebra.SemiringFor(algebra.Boolean)
		c := New(s, reg, Options{})
		res, err := c.CompileCtx(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		d, stats, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		if d.Size() > distinct+1 {
			t.Errorf("%v: final distribution has %d entries, want ≤ %d", agg, d.Size(), distinct+1)
		}
		if stats.MaxDistSize > distinct+1 {
			t.Errorf("%v: intermediate distribution of size %d exceeds the Prop. 2 bound %d",
				agg, stats.MaxDistSize, distinct+1)
		}
		if res.Stats.Shannon != 0 {
			t.Errorf("%v: independent terms needed %d Shannon expansions", agg, res.Stats.Shannon)
		}
	}
}

// Proposition 3: m-bounded SUM expressions over 0/1 variables have
// distributions of size at most n·m + 1 at every node, and COUNT
// distributions of size at most n + 1.
func TestProposition3BoundedSum(t *testing.T) {
	reg := vars.NewRegistry()
	n, m := 25, 3
	terms := make([]expr.Expr, n)
	for i := 0; i < n; i++ {
		x := fmt.Sprintf("x%d", i)
		reg.DeclareBool(x, 0.5)
		terms[i] = expr.Scale(algebra.Sum, expr.V(x), value.Int(int64(1+i%m)))
	}
	e := expr.MSum(algebra.Sum, terms...)
	s := algebra.SemiringFor(algebra.Boolean)
	c := New(s, reg, Options{})
	res, err := c.CompileCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	d, stats, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	bound := n*m + 1
	if d.Size() > bound || stats.MaxDistSize > bound {
		t.Errorf("SUM distribution sizes %d/%d exceed n·m+1 = %d", d.Size(), stats.MaxDistSize, bound)
	}
	// And the whole pipeline is polynomial: the d-tree is linear in n.
	if st := dtree.Measure(res.Root); st.Nodes > 4*n+4 {
		t.Errorf("d-tree has %d nodes for %d independent terms", st.Nodes, n)
	}
}

// The Example 14 pattern at scale: hierarchical-query annotations
// (read-once) compile to linear-size d-trees with zero Shannon expansions
// — the structural core of Theorem 3.
func TestHierarchicalAnnotationsStayPolynomial(t *testing.T) {
	reg := vars.NewRegistry()
	groups := 40
	fanout := 5
	outer := make([]expr.Expr, groups)
	for i := 0; i < groups; i++ {
		x := fmt.Sprintf("x%d", i)
		reg.DeclareBool(x, 0.5)
		inner := make([]expr.Expr, fanout)
		for j := 0; j < fanout; j++ {
			y := fmt.Sprintf("y%d_%d", i, j)
			reg.DeclareBool(y, 0.5)
			inner[j] = expr.Scale(algebra.Sum, expr.Product(expr.V(x), expr.V(y)), value.Int(int64(j+1)))
		}
		outer[i] = expr.MSum(algebra.Sum, inner...)
	}
	e := expr.MSum(algebra.Sum, outer...)
	s := algebra.SemiringFor(algebra.Boolean)
	c := New(s, reg, Options{})
	res, err := c.CompileCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Shannon != 0 {
		t.Errorf("read-once module expression needed %d Shannon expansions", res.Stats.Shannon)
	}
	nVars := groups * (fanout + 1)
	if st := dtree.Measure(res.Root); st.Nodes > 6*nVars {
		t.Errorf("d-tree has %d nodes for %d variables (not linear)", st.Nodes, nVars)
	}
}
