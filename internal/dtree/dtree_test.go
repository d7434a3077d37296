package dtree

import (
	"math"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

func env(reg *vars.Registry, k algebra.SemiringKind) Env {
	return Env{Semiring: algebra.SemiringFor(k), Registry: reg}
}

// Hand-built d-tree for the paper's Figure 5 (left branch, c←1):
// (a ⊗ ((b ⊕ 1) ⊗ 10)) ⊕sum (1 ⊗ 20), then the full ⊔c tree.
func figure5Tree(reg *vars.Registry) Node {
	branch := func(cv int64) Node {
		bPlus := &PlusNode{Parts: []Node{&VarLeaf{Name: "b"}, &ConstLeaf{V: value.Int(cv)}}}
		inner := &TensorNode{Agg: algebra.Sum, Scalar: bPlus, Mod: &ConstLeaf{V: value.Int(10), Module: true}}
		left := &TensorNode{Agg: algebra.Sum, Scalar: &VarLeaf{Name: "a"}, Mod: inner}
		right := &ConstLeaf{V: value.Int(20 * cv), Module: true}
		return &PlusNode{Module: true, Agg: algebra.Sum, Parts: []Node{left, right}}
	}
	pc := reg.MustDist("c")
	return &ExclusiveNode{Var: "c", Branches: []Branch{
		{Val: value.Int(1), P: pc.P(value.Int(1)), Child: branch(1)},
		{Val: value.Int(2), P: pc.P(value.Int(2)), Child: branch(2)},
	}}
}

func intDist(p float64) prob.Dist {
	return prob.FromPairs([]prob.Pair{{V: value.Int(1), P: p}, {V: value.Int(2), P: 1 - p}})
}

func TestFigure5Evaluation(t *testing.T) {
	reg := vars.NewRegistry()
	pa, pb, pc := 0.5, 0.25, 0.125
	reg.Declare("a", intDist(pa))
	reg.Declare("b", intDist(pb))
	reg.Declare("c", intDist(pc))
	tree := figure5Tree(reg)
	if err := Validate(tree); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	d, stats, err := Evaluate(tree, env(reg, algebra.Natural))
	if err != nil {
		t.Fatal(err)
	}
	qa, qb, qc := 1-pa, 1-pb, 1-pc
	want := prob.FromPairs([]prob.Pair{
		{V: value.Int(40), P: pa * pb * pc},
		{V: value.Int(50), P: pa * qb * pc},
		{V: value.Int(60), P: qa * pb * pc},
		{V: value.Int(70), P: pa * pb * qc},
		{V: value.Int(80), P: qa*qb*pc + pa*qb*qc},
		{V: value.Int(100), P: qa * pb * qc},
		{V: value.Int(120), P: qa * qb * qc},
	})
	if !d.Equal(want, 1e-12) {
		t.Fatalf("Figure 5 distribution:\n got %v\nwant %v", d, want)
	}
	if stats.NodeEvals == 0 || stats.MaxDistSize == 0 {
		t.Errorf("stats not collected: %+v", stats)
	}
}

func TestMeasureAndVariables(t *testing.T) {
	reg := vars.NewRegistry()
	reg.Declare("a", intDist(0.5))
	reg.Declare("b", intDist(0.5))
	reg.Declare("c", intDist(0.5))
	tree := figure5Tree(reg)
	st := Measure(tree)
	if st.Nodes == 0 || st.Leaves == 0 || st.Depth < 3 || st.Exclusive != 1 {
		t.Errorf("Measure = %+v", st)
	}
	vs := Variables(tree)
	if len(vs) != 2 || vs[0] != "a" || vs[1] != "b" {
		t.Errorf("Variables = %v (the expansion variable c is eliminated)", vs)
	}
}

func TestValidateRejectsSharedVariables(t *testing.T) {
	bad := &PlusNode{Parts: []Node{&VarLeaf{Name: "x"}, &VarLeaf{Name: "y"}, &VarLeaf{Name: "x"}}}
	if err := Validate(bad); err == nil {
		t.Fatalf("⊕ with shared variable accepted")
	}
	badEx := &ExclusiveNode{Var: "x", Branches: []Branch{
		{Val: value.Bool(true), P: 0.5, Child: &VarLeaf{Name: "x"}},
	}}
	if err := Validate(badEx); err == nil {
		t.Fatalf("⊔x with x in branch accepted")
	}
	if err := Validate(&PlusNode{Parts: []Node{&VarLeaf{Name: "x"}}}); err == nil {
		t.Fatalf("⊕ of one part accepted")
	}
	// A constant left child mentions no variable; this used to panic.
	good := &PlusNode{Parts: []Node{&ConstLeaf{V: value.Bool(true)}, &TimesNode{L: &VarLeaf{Name: "x"}, R: &VarLeaf{Name: "y"}}}}
	if err := Validate(good); err != nil {
		t.Fatalf("⊕ with a constant left child rejected: %v", err)
	}
}

func TestEvaluateCmpNode(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.3)
	// [x ⊗min 10 ≤ 15]: true iff x present.
	tree := &CmpNode{
		Th: value.LE,
		L:  &TensorNode{Agg: algebra.Min, Scalar: &VarLeaf{Name: "x"}, Mod: &ConstLeaf{V: value.Int(10), Module: true}},
		R:  &ConstLeaf{V: value.Int(15), Module: true},
	}
	d, _, err := Evaluate(tree, env(reg, algebra.Boolean))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.P(value.Bool(true)); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("P[x⊗10 ≤ 15] = %v, want 0.3", got)
	}
}

func TestEvaluateUndeclaredVariable(t *testing.T) {
	reg := vars.NewRegistry()
	if _, _, err := Evaluate(&VarLeaf{Name: "nope"}, env(reg, algebra.Boolean)); err == nil {
		t.Fatalf("undeclared variable accepted")
	}
}

func TestEvaluateMemoisesSharedSubtrees(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("g", 0.5)
	// Both branches of ⊔g share the same sub-tree node: the evaluator must
	// evaluate it once (d-trees compiled with memoisation are DAGs).
	shared := &TimesNode{L: &VarLeaf{Name: "x"}, R: &ConstLeaf{V: value.Int(1)}}
	tree := &ExclusiveNode{Var: "g", Branches: []Branch{
		{Val: value.Bool(false), P: 0.5, Child: shared},
		{Val: value.Bool(true), P: 0.5, Child: shared},
	}}
	_, stats, err := Evaluate(tree, env(reg, algebra.Boolean))
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodeEvals != 4 {
		t.Errorf("NodeEvals = %d, want 4 (⊔, ⊙, var, const; shared sub-tree once)", stats.NodeEvals)
	}
}

func TestStringAndDOT(t *testing.T) {
	reg := vars.NewRegistry()
	reg.Declare("a", intDist(0.5))
	reg.Declare("b", intDist(0.5))
	reg.Declare("c", intDist(0.5))
	tree := figure5Tree(reg)
	s := String(tree)
	for _, frag := range []string{"⊔c", "⊗sum", "⊕sum", "var a", "var b"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String output missing %q:\n%s", frag, s)
		}
	}
	dot := DOT(tree)
	if !strings.HasPrefix(dot, "digraph dtree {") || !strings.Contains(dot, "->") {
		t.Errorf("DOT output malformed:\n%s", dot)
	}
}

func TestMixtureWeightsFromBranches(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("g", 0.25)
	tree := &ExclusiveNode{Var: "g", Branches: []Branch{
		{Val: value.Bool(false), P: 0.75, Child: &ConstLeaf{V: value.Int(0)}},
		{Val: value.Bool(true), P: 0.25, Child: &ConstLeaf{V: value.Int(1)}},
	}}
	d, _, err := Evaluate(tree, env(reg, algebra.Boolean))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.P(value.Bool(true))-0.25) > 1e-12 {
		t.Errorf("⊔ mixture = %v", d)
	}
}
