package worlds

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

func TestEnumerateSimpleConjunction(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("y", 0.4)
	s := algebra.SemiringFor(algebra.Boolean)
	d, err := Enumerate(expr.MustParse("x*y"), reg, s)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.P(value.Bool(true)); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("P[x∧y] = %v, want 0.2", got)
	}
	// Disjunction per Example 2.
	d, err = Enumerate(expr.MustParse("x+y"), reg, s)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 0.5*0.6
	if got := d.P(value.Bool(true)); math.Abs(got-want) > 1e-12 {
		t.Errorf("P[x∨y] = %v, want %v", got, want)
	}
}

func TestEnumerateModuleExpression(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	s := algebra.SemiringFor(algebra.Boolean)
	d, err := Enumerate(expr.MustParse("min(x @min 5)"), reg, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.P(value.Int(5))-0.5) > 1e-12 || math.Abs(d.P(value.PosInf())-0.5) > 1e-12 {
		t.Errorf("distribution = %v", d)
	}
}

func TestEnumerateBoundExceeded(t *testing.T) {
	reg := vars.NewRegistry()
	terms := make([]expr.Expr, 0, 30)
	for i := 0; i < 30; i++ {
		n := string(rune('a'+i%26)) + string(rune('0'+i/26))
		reg.DeclareBool(n, 0.5)
		terms = append(terms, expr.V(n))
	}
	s := algebra.SemiringFor(algebra.Boolean)
	if _, err := Enumerate(expr.Sum(terms...), reg, s); err == nil {
		t.Errorf("30-variable enumeration should exceed the bound")
	}
}

func TestEnumerateUndeclared(t *testing.T) {
	reg := vars.NewRegistry()
	s := algebra.SemiringFor(algebra.Boolean)
	if _, err := Enumerate(expr.V("ghost"), reg, s); err == nil {
		t.Errorf("undeclared variable accepted")
	}
}

func TestEnumerateJoint(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("a", 0.5)
	reg.DeclareBool("b", 0.5)
	s := algebra.SemiringFor(algebra.Boolean)
	// Correlated expressions a·b and a: joint outcome (1,1) has
	// probability P[a]P[b] = 0.25, outcome (1,0) is impossible.
	joint, err := EnumerateJoint([]expr.Expr{expr.MustParse("a*b"), expr.V("a")}, reg, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(joint["1,1"]-0.25) > 1e-12 {
		t.Errorf("P[(1,1)] = %v, want 0.25", joint["1,1"])
	}
	if joint["1,0"] != 0 {
		t.Errorf("impossible outcome has mass %v", joint["1,0"])
	}
	total := 0.0
	for _, p := range joint {
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("joint mass = %v", total)
	}
}

func TestMonteCarloConverges(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("y", 0.4)
	s := algebra.SemiringFor(algebra.Boolean)
	e := expr.MustParse("x*y")
	rng := rand.New(rand.NewSource(3))
	est, err := MonteCarloCtx(context.Background(), e, reg, s, 40000, rng)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Enumerate(e, reg, s)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Equal(exact, 0.02) {
		t.Errorf("Monte-Carlo estimate too far:\n est %v\nexact %v", est, exact)
	}
	if _, err := MonteCarloCtx(context.Background(), e, reg, s, 0, rng); err == nil {
		t.Errorf("zero samples accepted")
	}
}

func TestEnumerateMatchesHandComputedModuleSum(t *testing.T) {
	// Paper Example 11 cross-check by enumeration: x·y ⊗ 5 under N.
	reg := vars.NewRegistry()
	reg.Declare("x", prob.FromPairs([]prob.Pair{
		{V: value.Int(0), P: 0.3}, {V: value.Int(1), P: 0.3}, {V: value.Int(2), P: 0.4},
	}))
	reg.Declare("y", prob.FromPairs([]prob.Pair{
		{V: value.Int(1), P: 0.4}, {V: value.Int(2), P: 0.4}, {V: value.Int(3), P: 0.2},
	}))
	s := algebra.SemiringFor(algebra.Natural)
	d, err := Enumerate(expr.MustParse("(x*y) @sum 5"), reg, s)
	if err != nil {
		t.Fatal(err)
	}
	wantP10 := 0.3*0.4 + 0.4*0.4 // x=1,y=2 or x=2,y=1
	if math.Abs(d.P(value.Int(10))-wantP10) > 1e-12 {
		t.Errorf("P[10] = %v, want %v", d.P(value.Int(10)), wantP10)
	}
}
