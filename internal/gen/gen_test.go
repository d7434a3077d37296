package gen

import (
	"context"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/value"
	"pvcagg/internal/worlds"
)

func baseParams() Params {
	return Params{
		L: 5, R: 0, NumVars: 6, NumClauses: 2, NumLiterals: 2,
		MaxV: 20, AggL: algebra.Min, Theta: value.LE, C: 10, Seed: 1,
	}
}

func TestGeneratedShape(t *testing.T) {
	inst, err := New(baseParams())
	if err != nil {
		t.Fatal(err)
	}
	cm, ok := inst.Expr.(expr.Cmp)
	if !ok {
		t.Fatalf("not a conditional: %T", inst.Expr)
	}
	sum, ok := cm.L.(expr.AggSum)
	if !ok {
		t.Fatalf("left side not an aggregation sum: %T", cm.L)
	}
	if len(sum.Terms) != 5 {
		t.Errorf("L = %d, want 5", len(sum.Terms))
	}
	if _, ok := cm.R.(expr.MConst); !ok {
		t.Errorf("one-sided instance must compare against a constant")
	}
	if inst.Registry.Len() != 6 {
		t.Errorf("registry has %d variables, want 6", inst.Registry.Len())
	}
	if err := inst.Registry.CheckDeclared(inst.Expr); err != nil {
		t.Errorf("undeclared variables: %v", err)
	}
}

func TestTwoSided(t *testing.T) {
	p := baseParams()
	p.R = 4
	p.AggR = algebra.Sum
	inst, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	cm := inst.Expr.(expr.Cmp)
	if _, ok := cm.R.(expr.AggSum); !ok {
		t.Fatalf("two-sided instance right side: %T", cm.R)
	}
}

func TestDeterministicSeed(t *testing.T) {
	a := MustNew(baseParams())
	b := MustNew(baseParams())
	if expr.String(a.Expr) != expr.String(b.Expr) {
		t.Errorf("same seed produced different expressions")
	}
	p := baseParams()
	p.Seed = 2
	c := MustNew(p)
	if expr.String(a.Expr) == expr.String(c.Expr) {
		t.Errorf("different seeds produced identical expressions")
	}
}

func TestCountForcesUnitValues(t *testing.T) {
	p := baseParams()
	p.AggL = algebra.Count
	inst := MustNew(p)
	sum := inst.Expr.(expr.Cmp).L.(expr.AggSum)
	for _, term := range sum.Terms {
		mc := term.(expr.Tensor).Mod.(expr.MConst)
		if mc.V != value.Int(1) {
			t.Errorf("COUNT term has value %v, want 1", mc.V)
		}
	}
}

func TestValidation(t *testing.T) {
	bad := []Params{
		{L: 0, NumVars: 1, NumClauses: 1, NumLiterals: 1},
		{L: 1, R: -1, NumVars: 1, NumClauses: 1, NumLiterals: 1},
		{L: 1, NumVars: 0, NumClauses: 1, NumLiterals: 1},
		{L: 1, NumVars: 1, NumClauses: 1, NumLiterals: 1, MaxV: -1},
		{L: 1, NumVars: 1, NumClauses: 1, NumLiterals: 1, VarProb: 2},
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

// Generated instances compile correctly: d-tree distribution equals world
// enumeration for every monoid and operator combination.
func TestGeneratedInstancesCompileCorrectly(t *testing.T) {
	s := algebra.SemiringFor(algebra.Boolean)
	for _, agg := range []algebra.Agg{algebra.Min, algebra.Max, algebra.Count, algebra.Sum} {
		for _, th := range []value.Theta{value.EQ, value.LE, value.GE} {
			p := baseParams()
			p.AggL = agg
			p.Theta = th
			p.Seed = int64(agg)*10 + int64(th)
			inst := MustNew(p)
			c := compile.New(s, inst.Registry, compile.Options{})
			res, err := c.CompileCtx(context.Background(), inst.Expr)
			if err != nil {
				t.Fatalf("%v %v: %v", agg, th, err)
			}
			got, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: inst.Registry})
			if err != nil {
				t.Fatal(err)
			}
			want, err := worlds.Enumerate(inst.Expr, inst.Registry, s)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want, 1e-9) {
				t.Errorf("%v %v: compiled distribution differs from enumeration\n got %v\nwant %v",
					agg, th, got, want)
			}
		}
	}
}
