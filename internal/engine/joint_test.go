package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
	"pvcagg/internal/worlds"
)

var boolean = algebra.SemiringFor(algebra.Boolean)

// Section 5's joint example: integer variables a, b, c with values 1, 2;
// P[⟨a+b, a·c⟩ = ⟨3, 2⟩] = Pa[2]Pb[1]Pc[1] + Pa[1]Pb[2]Pc[2].
func TestJointPaperExample(t *testing.T) {
	reg := vars.NewRegistry()
	mk := func(p1 float64) prob.Dist {
		return prob.FromPairs([]prob.Pair{{V: value.Int(1), P: p1}, {V: value.Int(2), P: 1 - p1}})
	}
	pa, pb, pc := 0.5, 0.25, 0.125
	reg.Declare("a", mk(pa))
	reg.Declare("b", mk(pb))
	reg.Declare("c", mk(pc))
	s := algebra.SemiringFor(algebra.Natural)
	es := []expr.Expr{expr.MustParse("a+b"), expr.MustParse("a*c")}
	joint, err := Joint(context.Background(), s, reg, es, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := (1-pa)*pb*pc + pa*(1-pb)*(1-pc)
	found := false
	for _, o := range joint {
		if o.Values[0] == value.Int(3) && o.Values[1] == value.Int(2) {
			found = true
			if math.Abs(o.P-want) > 1e-12 {
				t.Errorf("P[⟨3,2⟩] = %v, want %v", o.P, want)
			}
		}
	}
	if !found {
		t.Fatalf("outcome ⟨3,2⟩ missing: %v", joint)
	}
	checkJoint(t, joint, es, reg, s)
}

// checkJoint holds a joint distribution to possible-worlds enumeration
// within 1e-12, outcome for outcome, and to sorted, distinct value tuples.
func checkJoint(t *testing.T, joint []JointOutcome, es []expr.Expr, reg *vars.Registry, s algebra.Semiring) {
	t.Helper()
	want, err := worlds.EnumerateJoint(es, reg, s)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for i, o := range joint {
		if i > 0 && slices.CompareFunc(joint[i-1].Values, o.Values, value.V.Cmp) >= 0 {
			t.Errorf("outcomes %v and %v are not sorted and distinct", joint[i-1].Values, o.Values)
		}
		key := ""
		for k, v := range o.Values {
			if k > 0 {
				key += ","
			}
			key += v.String()
		}
		got[key] = o.P
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("P[%s] = %v, possible worlds give %v (exprs %v)", k, got[k], w, es)
		}
	}
	for k, p := range got {
		if _, ok := want[k]; !ok && p != 0 {
			t.Errorf("outcome %s has mass %v, possible worlds give none", k, p)
		}
	}
}

// Joint distributions agree with possible-worlds enumeration on random
// correlated expression pairs.
func TestJointMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		reg := vars.NewRegistry()
		names := []string{"a", "b", "c", "d"}
		for _, n := range names {
			reg.DeclareBool(n, 0.2+0.6*r.Float64())
		}
		mk := func() expr.Expr {
			t1 := expr.Product(expr.V(names[r.Intn(4)]), expr.V(names[r.Intn(4)]))
			t2 := expr.V(names[r.Intn(4)])
			return expr.Sum(t1, t2)
		}
		es := []expr.Expr{mk(), mk()}
		joint, err := Joint(context.Background(), boolean, reg, es, ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		checkJoint(t, joint, es, reg, boolean)
	}
}

// The joint of no expressions is the empty tuple, with certainty.
func TestJointOfNothing(t *testing.T) {
	joint, err := Joint(context.Background(), boolean, vars.NewRegistry(), nil, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(joint) != 1 || len(joint[0].Values) != 0 || joint[0].P != 1 {
		t.Errorf("Joint(nil) = %+v, want one empty tuple with P = 1", joint)
	}
}

// A joint runs under the exact path's context and compile budget.
func TestJointContextAndBudget(t *testing.T) {
	reg := vars.NewRegistry()
	for i := 0; i < 4; i++ {
		reg.DeclareBool(fmt.Sprintf("x%d", i), 0.5)
	}
	es := []expr.Expr{
		expr.MustParse("[sum(x0*x1 @sum 1, x1*x2 @sum 2, x2*x3 @sum 3, x3*x0 @sum 1) <= 3]"),
		expr.MustParse("x0 + x2"),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Joint(ctx, boolean, reg, es, ExecConfig{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled joint: error %v, want %v", err, context.Canceled)
	}
	_, err := Joint(context.Background(), boolean, reg, es[:1], ExecConfig{Compile: compile.Options{MaxNodes: 4}})
	if !errors.Is(err, compile.ErrNodeBudget) {
		t.Errorf("budgeted joint: error %v, want %v", err, compile.ErrNodeBudget)
	}
}

// groupAverage is the AVG of one group whose i-th tuple is annotated with
// the variable anns[i] and carries vals[i].
func groupAverage(t *testing.T, reg *vars.Registry, anns []string, vals []int64) AvgDist {
	t.Helper()
	var sum, count []expr.Expr
	for i, x := range anns {
		sum = append(sum, expr.Scale(algebra.Sum, expr.V(x), value.Int(vals[i])))
		count = append(count, expr.Scale(algebra.Sum, expr.V(x), value.Int(1)))
	}
	d, err := Average(context.Background(), boolean, reg, expr.MSum(algebra.Sum, sum...), expr.MSum(algebra.Sum, count...), ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAverageTwoTuples(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("y", 0.5)
	d := groupAverage(t, reg, []string{"x", "y"}, []int64{10, 20})
	// Worlds: {} (avg undefined, 0.25), {x} avg 10 (0.25), {y} avg 20
	// (0.25), {x,y} avg 15 (0.25).
	if math.Abs(d.PEmpty-0.25) > 1e-12 {
		t.Errorf("PEmpty = %v", d.PEmpty)
	}
	want := map[Ratio]float64{
		{10, 1}: 0.25,
		{15, 1}: 0.25,
		{20, 1}: 0.25,
	}
	if len(d.Outcomes) != len(want) {
		t.Fatalf("outcomes = %v", d.Outcomes)
	}
	for _, o := range d.Outcomes {
		if math.Abs(want[o.Avg]-o.P) > 1e-12 {
			t.Errorf("P[avg=%v] = %v, want %v", o.Avg, o.P, want[o.Avg])
		}
	}
	if math.Abs(d.Expectation()-15) > 1e-12 {
		t.Errorf("E[avg | non-empty] = %v, want 15", d.Expectation())
	}
}

func TestAverageNonIntegerRatios(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("a", 0.5)
	reg.DeclareBool("b", 0.5)
	reg.DeclareBool("c", 0.5)
	d := groupAverage(t, reg, []string{"a", "b", "c"}, []int64{1, 2, 4})
	// The world {a, b, c} has avg 7/3.
	found := false
	for _, o := range d.Outcomes {
		if o.Avg == (Ratio{7, 3}) {
			found = true
			if math.Abs(o.P-0.125) > 1e-12 {
				t.Errorf("P[7/3] = %v, want 0.125", o.P)
			}
		}
	}
	if !found {
		t.Fatalf("outcome 7/3 missing: %v", d.Outcomes)
	}
	// Ratios are reduced: {a,b} gives (1+2)/2 = 3/2, {b,c} gives 6/2 = 3.
	for _, o := range d.Outcomes {
		if q := big.NewRat(o.Avg.Num, o.Avg.Den); q.Num().Int64() != o.Avg.Num || q.Denom().Int64() != o.Avg.Den {
			t.Errorf("unreduced ratio %v", o.Avg)
		}
	}
	// Total mass: outcomes + empty = 1.
	mass := d.PEmpty
	for _, o := range d.Outcomes {
		mass += o.P
	}
	if math.Abs(mass-1) > 1e-12 {
		t.Errorf("total mass = %v", mass)
	}
}

// Outcomes are sorted by their exact value even where the cross products
// of numerators and denominators overflow int64: 2⁶²−1 times a count of
// 2 or 3 does.
func TestAverageSortsLargeRatios(t *testing.T) {
	reg := vars.NewRegistry()
	for _, x := range []string{"x", "y", "z"} {
		reg.DeclareBool(x, 0.5)
	}
	d := groupAverage(t, reg, []string{"x", "y", "z"}, []int64{1<<62 - 1, 1, 4})
	if len(d.Outcomes) != 7 {
		t.Fatalf("outcomes = %v, want one per non-empty world", d.Outcomes)
	}
	for i := 1; i < len(d.Outcomes); i++ {
		a, b := d.Outcomes[i-1].Avg, d.Outcomes[i].Avg
		if big.NewRat(a.Num, a.Den).Cmp(big.NewRat(b.Num, b.Den)) >= 0 {
			t.Errorf("outcome %d (%v) not below outcome %d (%v): %v", i-1, a, i, b, d.Outcomes)
		}
	}
}

// An empty group's SUM and COUNT are the SUM monoid's neutral element.
func TestAverageEmptyGroup(t *testing.T) {
	zero := expr.MConst{V: value.Int(0)}
	d, err := Average(context.Background(), boolean, vars.NewRegistry(), zero, zero, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d.PEmpty != 1 || len(d.Outcomes) != 0 {
		t.Errorf("empty group: %+v", d)
	}
}

func TestAverageErrors(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	if _, err := Average(context.Background(), boolean, reg, expr.V("x"), expr.V("x"), ExecConfig{}); err == nil {
		t.Errorf("semiring inputs accepted")
	}
}

func TestRatioString(t *testing.T) {
	r := Ratio{7, 3}
	if r.String() != "7/3" {
		t.Errorf("String = %q", r.String())
	}
	if math.Abs(r.Float()-7.0/3.0) > 1e-15 {
		t.Errorf("Float = %v", r.Float())
	}
}
