package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
	"pvcagg/internal/worlds"
)

func TestDistributionEndToEnd(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("y", 0.4)
	p := New(algebra.Boolean, reg)
	d, rep, err := p.Distribution(expr.MustParse("x+y"))
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 0.5*0.6
	if got := d.P(value.Bool(true)); math.Abs(got-want) > 1e-12 {
		t.Errorf("P[x∨y] = %v, want %v", got, want)
	}
	if rep.Tree.Nodes == 0 || rep.Eval.NodeEvals == 0 {
		t.Errorf("report not filled: %+v", rep)
	}
}

// The confidence of a tuple annotated with e is its distribution's mass
// off the semiring's zero.
func TestTruthProbability(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.25)
	reg.DeclareBool("y", 0.5)
	p := New(algebra.Boolean, reg)
	d, _, err := p.Distribution(expr.MustParse("x*y"))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.TruthProbability(); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("TruthProbability = %v, want 0.125", got)
	}
}

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
	p := New(algebra.Natural, reg)
	joint, err := p.Joint([]expr.Expr{expr.MustParse("a+b"), expr.MustParse("a*c")})
	if err != nil {
		t.Fatal(err)
	}
	want := (1-pa)*pb*pc + pa*(1-pb)*(1-pc)
	found := false
	for _, o := range joint {
		if o.Values[0] == "3" && o.Values[1] == "2" {
			found = true
			if math.Abs(o.P-want) > 1e-12 {
				t.Errorf("P[⟨3,2⟩] = %v, want %v", o.P, want)
			}
		}
	}
	if !found {
		t.Fatalf("outcome ⟨3,2⟩ missing: %v", joint)
	}
	total := 0.0
	for _, o := range joint {
		total += o.P
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("joint mass = %v", total)
	}
}

// Joint distributions agree with brute-force world enumeration on random
// correlated expression pairs.
func TestJointMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		reg := vars.NewRegistry()
		names := []string{"a", "b", "c", "d"}
		for _, n := range names {
			reg.DeclareBool(n, 0.2+0.6*r.Float64())
		}
		p := New(algebra.Boolean, reg)
		mk := func() expr.Expr {
			t1 := expr.Product(expr.V(names[r.Intn(4)]), expr.V(names[r.Intn(4)]))
			t2 := expr.V(names[r.Intn(4)])
			return expr.Sum(t1, t2)
		}
		es := []expr.Expr{mk(), mk()}
		joint, err := p.Joint(es)
		if err != nil {
			t.Fatal(err)
		}
		wantMap, err := worlds.EnumerateJoint(es, reg, p.Semiring)
		if err != nil {
			t.Fatal(err)
		}
		gotMap := map[string]float64{}
		for _, o := range joint {
			gotMap[o.Values[0]+","+o.Values[1]] += o.P
		}
		for k, w := range wantMap {
			if math.Abs(gotMap[k]-w) > 1e-9 {
				t.Fatalf("trial %d: P[%s] = %v, want %v (exprs %s; %s)",
					trial, k, gotMap[k], w, expr.String(es[0]), expr.String(es[1]))
			}
		}
	}
}

// The pipeline handles annotations mixing several monoids in one
// conditional product (as produced by $ with several aggregates).
func TestMixedMonoidAnnotation(t *testing.T) {
	reg := vars.NewRegistry()
	for i := 0; i < 4; i++ {
		reg.DeclareBool(fmt.Sprintf("x%d", i), 0.5)
	}
	e := expr.MustParse("[min(x0 @min 5, x1 @min 9) <= 6] * [sum(x2 @sum 2, x3 @sum 2) >= 2]")
	p := New(algebra.Boolean, reg)
	d, _, err := p.Distribution(e)
	if err != nil {
		t.Fatal(err)
	}
	want, err := worlds.Enumerate(e, reg, p.Semiring)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(want, 1e-9) {
		t.Errorf("mixed-monoid distribution:\n got %v\nwant %v", d, want)
	}
}

func TestDistributionErrorPropagation(t *testing.T) {
	reg := vars.NewRegistry()
	p := New(algebra.Boolean, reg)
	if _, _, err := p.Distribution(expr.V("ghost")); err == nil {
		t.Errorf("undeclared variable accepted")
	}
	if _, err := p.Joint([]expr.Expr{expr.V("ghost")}); err == nil {
		t.Errorf("Joint accepted undeclared variable")
	}
}
