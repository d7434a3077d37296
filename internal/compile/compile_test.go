package compile

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
	"pvcagg/internal/worlds"
)

func boolReg(p float64, names ...string) *vars.Registry {
	r := vars.NewRegistry()
	for _, n := range names {
		r.DeclareBool(n, p)
	}
	return r
}

func mustCompile(t *testing.T, c *Compiler, e expr.Expr) Result {
	t.Helper()
	res, err := c.CompileCtx(context.Background(), e)
	if err != nil {
		t.Fatalf("Compile(%s): %v", expr.String(e), err)
	}
	if err := dtree.Validate(res.Root); err != nil {
		t.Fatalf("invalid d-tree for %s: %v", expr.String(e), err)
	}
	return res
}

func distOf(t *testing.T, c *Compiler, reg *vars.Registry, s algebra.Semiring, e expr.Expr) prob.Dist {
	t.Helper()
	res := mustCompile(t, c, e)
	d, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return d
}

// Figure 5: d-tree for α = a(b+c)⊗10 + c⊗20 over N⊗N with SUM. Example 12
// works out the full distribution for variables valued 1 (prob p) or 2
// (prob 1−p).
func TestExample12SumDistribution(t *testing.T) {
	reg := vars.NewRegistry()
	pa, pb, pc := 0.5, 0.25, 0.125
	two := func(p float64) prob.Dist {
		return prob.FromPairs([]prob.Pair{{V: value.Int(1), P: p}, {V: value.Int(2), P: 1 - p}})
	}
	reg.Declare("a", two(pa))
	reg.Declare("b", two(pb))
	reg.Declare("c", two(pc))
	s := algebra.SemiringFor(algebra.Natural)
	e := expr.MustParse("sum((a*(b+c)) @sum 10, c @sum 20)")

	c := New(s, reg, Options{})
	got := distOf(t, c, reg, s, e)

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
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Example 12 SUM distribution:\n got %v\nwant %v", got, want)
	}
}

// Example 12 continued: under MIN aggregation the distribution is {(10,1)}.
func TestExample12MinDistribution(t *testing.T) {
	reg := vars.NewRegistry()
	two := func(p float64) prob.Dist {
		return prob.FromPairs([]prob.Pair{{V: value.Int(1), P: p}, {V: value.Int(2), P: 1 - p}})
	}
	reg.Declare("a", two(0.5))
	reg.Declare("b", two(0.25))
	reg.Declare("c", two(0.125))
	s := algebra.SemiringFor(algebra.Natural)
	e := expr.MustParse("min((a*(b+c)) @min 10, c @min 20)")
	c := New(s, reg, Options{})
	got := distOf(t, c, reg, s, e)
	if !got.Equal(prob.Point(value.Int(10)), 1e-12) {
		t.Fatalf("Example 12 MIN distribution = %v, want {(10, 1)}", got)
	}
}

// Example 12, Boolean semiring with MIN: the paper gives the distribution
// in closed form.
func TestExample12BooleanMin(t *testing.T) {
	reg := vars.NewRegistry()
	pa, pb, pc := 0.5, 0.25, 0.125
	reg.DeclareBool("a", pa)
	reg.DeclareBool("b", pb)
	reg.DeclareBool("c", pc)
	s := algebra.SemiringFor(algebra.Boolean)
	e := expr.MustParse("min((a*(b+c)) @min 10, c @min 20)")
	c := New(s, reg, Options{})
	got := distOf(t, c, reg, s, e)
	// Mapping the paper's p (value 1 ≡ ⊤, there with prob p_x for 1 and
	// p̄_x for 2 ≡ ⊥): P[10] = pa·pb·p̄c + pa·pc, P[20] = p̄a·pc,
	// P[∞] = the rest.
	qa, qb, qc := 1-pa, 1-pb, 1-pc
	want := prob.FromPairs([]prob.Pair{
		{V: value.Int(10), P: pa*pb*qc + pa*pc},
		{V: value.Int(20), P: qa * pc},
		{V: value.PosInf(), P: pa*qb*qc + qa*pb*qc + qa*qb*qc},
	})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Example 12 B/MIN distribution:\n got %v\nwant %v", got, want)
	}
}

// Figure 6: the semimodule annotation of tuple 〈Gap〉. The d-tree must be
// polynomial and its distribution must match brute-force enumeration.
func TestFigure6GapAnnotation(t *testing.T) {
	names := []string{"x4", "x5", "y41", "y43", "y51", "z1", "z3", "z5"}
	reg := boolReg(0.5, names...)
	s := algebra.SemiringFor(algebra.Boolean)
	e := expr.MustParse("max(x4*y41*(z1+z5) @max 15, x4*y43*z3 @max 60, x5*y51*(z1+z5) @max 10)")
	c := New(s, reg, Options{})
	got := distOf(t, c, reg, s, e)
	want, err := worlds.Enumerate(e, reg, s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Fatalf("Figure 6 distribution:\n got %v\nwant %v", got, want)
	}
}

// The semiring component of Figure 6 compiles with the same steps (thick
// blue d-tree): x4 y41 (z1+z5) + x4 y43 z3 + x5 y51 (z1+z5).
func TestFigure6SemiringComponent(t *testing.T) {
	names := []string{"x4", "x5", "y41", "y43", "y51", "z1", "z3", "z5"}
	reg := boolReg(0.3, names...)
	s := algebra.SemiringFor(algebra.Boolean)
	e := expr.MustParse("x4*y41*(z1+z5) + x4*y43*z3 + x5*y51*(z1+z5)")
	c := New(s, reg, Options{})
	res := mustCompile(t, c, e)
	got, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	want, err := worlds.Enumerate(e, reg, s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Fatalf("distribution mismatch:\n got %v\nwant %v", got, want)
	}
	// x4 and x5 each occur twice: at least one Shannon expansion happens,
	// and factoring kicks in afterwards.
	if res.Stats.Shannon == 0 {
		t.Errorf("expected at least one Shannon expansion, stats = %+v", res.Stats)
	}
}

// Read-once expressions compile without any Shannon expansion (Section 6:
// hierarchical-query annotations are read-once, hence polynomial).
func TestReadOnceNeedsNoShannon(t *testing.T) {
	reg := boolReg(0.4, "x1", "x2", "x3", "y11", "y12", "y21", "y22", "y33", "y34")
	s := algebra.SemiringFor(algebra.Boolean)
	// Example 14's read-once annotation.
	e := expr.MustParse("x1*y11 + x1*y12 + x2*y21 + x2*y22 + x3*y33 + x3*y34")
	c := New(s, reg, Options{})
	res := mustCompile(t, c, e)
	if res.Stats.Shannon != 0 {
		t.Errorf("read-once expression needed %d Shannon expansions", res.Stats.Shannon)
	}
	if res.Stats.Factorings == 0 {
		t.Errorf("expected common-variable factorings, stats = %+v", res.Stats)
	}
	got, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	want, err := worlds.Enumerate(e, reg, s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Fatalf("distribution mismatch")
	}
}

// Example 14's semimodule expression: x1(y11⊗10 + y12⊗50) + x2(…) + x3(…)
// compiles by tensor factoring without Shannon expansions.
func TestExample14ModuleFactoring(t *testing.T) {
	reg := boolReg(0.4, "x1", "x2", "x3", "y11", "y12", "y21", "y22", "y33", "y34")
	s := algebra.SemiringFor(algebra.Boolean)
	e := expr.MustParse(`sum(
		x1*y11 @sum 10, x1*y12 @sum 50,
		x2*y21 @sum 11, x2*y22 @sum 60,
		x3*y33 @sum 15, x3*y34 @sum 40)`)
	c := New(s, reg, Options{})
	res := mustCompile(t, c, e)
	if res.Stats.Shannon != 0 {
		t.Errorf("Example 14 needed %d Shannon expansions", res.Stats.Shannon)
	}
	got, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	want, err := worlds.Enumerate(e, reg, s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Fatalf("Example 14 distribution mismatch:\n got %v\nwant %v", got, want)
	}
}

// Random expressions: compiled distribution == brute-force enumeration.
// This is the central soundness property (Proposition 4 + Theorem 2).
func TestCompileMatchesEnumerationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	s := algebra.SemiringFor(algebra.Boolean)
	for trial := 0; trial < 120; trial++ {
		nv := 3 + r.Intn(6)
		names := make([]string, nv)
		reg := vars.NewRegistry()
		for i := range names {
			names[i] = fmt.Sprintf("v%d", i)
			reg.DeclareBool(names[i], 0.1+0.8*r.Float64())
		}
		e := randomExpr(r, names, 3)
		c := New(s, reg, Options{})
		res, err := c.CompileCtx(context.Background(), e)
		if err != nil {
			t.Fatalf("Compile(%s): %v", expr.String(e), err)
		}
		if err := dtree.Validate(res.Root); err != nil {
			t.Fatalf("invalid d-tree for %s: %v", expr.String(e), err)
		}
		got, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		want, err := worlds.Enumerate(e, reg, s)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 1e-9) {
			t.Fatalf("trial %d: %s\n got %v\nwant %v\ntree:\n%s",
				trial, expr.String(e), got, want, dtree.String(res.Root))
		}
	}
}

// randomExpr builds a random expression: a conditional over a random
// semimodule sum, a semiring formula, or a mix.
func randomExpr(r *rand.Rand, names []string, depth int) expr.Expr {
	pick := func() expr.Expr { return expr.V(names[r.Intn(len(names))]) }
	var semiring func(d int) expr.Expr
	semiring = func(d int) expr.Expr {
		if d == 0 || r.Intn(3) == 0 {
			return pick()
		}
		n := 2 + r.Intn(2)
		terms := make([]expr.Expr, n)
		for i := range terms {
			terms[i] = semiring(d - 1)
		}
		if r.Intn(2) == 0 {
			return expr.Sum(terms...)
		}
		return expr.Product(terms...)
	}
	switch r.Intn(4) {
	case 0:
		return semiring(depth)
	case 1: // conditional over a module sum vs constant
		aggs := []algebra.Agg{algebra.Min, algebra.Max, algebra.Sum, algebra.Count}
		agg := aggs[r.Intn(len(aggs))]
		n := 1 + r.Intn(4)
		terms := make([]expr.Expr, n)
		for i := range terms {
			mv := int64(r.Intn(20))
			if agg == algebra.Count {
				mv = 1
			}
			terms[i] = expr.Scale(agg, semiring(depth-1), value.Int(mv))
		}
		ths := []value.Theta{value.EQ, value.NE, value.LE, value.GE, value.LT, value.GT}
		return expr.Compare(ths[r.Intn(len(ths))], expr.MSum(agg, terms...), expr.MConst{V: value.Int(int64(r.Intn(25)))})
	case 2: // two-sided conditional
		mk := func(agg algebra.Agg) expr.Expr {
			n := 1 + r.Intn(3)
			terms := make([]expr.Expr, n)
			for i := range terms {
				terms[i] = expr.Scale(agg, pick(), value.Int(int64(r.Intn(15))))
			}
			return expr.MSum(agg, terms...)
		}
		aggs := []algebra.Agg{algebra.Min, algebra.Max, algebra.Sum}
		return expr.Compare(value.LE, mk(aggs[r.Intn(3)]), mk(aggs[r.Intn(3)]))
	default: // product of a formula and a conditional (query-style annotation)
		return expr.Product(semiring(depth-1), randomCond(r, names))
	}
}

func randomCond(r *rand.Rand, names []string) expr.Expr {
	agg := []algebra.Agg{algebra.Min, algebra.Max, algebra.Sum}[r.Intn(3)]
	n := 1 + r.Intn(3)
	terms := make([]expr.Expr, n)
	for i := range terms {
		terms[i] = expr.Scale(agg, expr.V(names[r.Intn(len(names))]), value.Int(int64(r.Intn(12))))
	}
	return expr.Compare(value.GE, expr.MSum(agg, terms...), expr.MConst{V: value.Int(int64(r.Intn(14)))})
}

// The same property with the Natural semiring and multi-valued variables.
func TestCompileMatchesEnumerationNatural(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := algebra.SemiringFor(algebra.Natural)
	for trial := 0; trial < 60; trial++ {
		nv := 2 + r.Intn(4)
		names := make([]string, nv)
		reg := vars.NewRegistry()
		for i := range names {
			names[i] = fmt.Sprintf("n%d", i)
			p1 := 0.2 + 0.5*r.Float64()
			p2 := (1 - p1) * r.Float64()
			reg.Declare(names[i], prob.FromPairs([]prob.Pair{
				{V: value.Int(0), P: p1},
				{V: value.Int(1), P: p2},
				{V: value.Int(2), P: 1 - p1 - p2},
			}))
		}
		e := randomExpr(r, names, 2)
		c := New(s, reg, Options{})
		res, err := c.CompileCtx(context.Background(), e)
		if err != nil {
			t.Fatalf("Compile(%s): %v", expr.String(e), err)
		}
		got, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		want, err := worlds.Enumerate(e, reg, s)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 1e-9) {
			t.Fatalf("trial %d: %s\n got %v\nwant %v", trial, expr.String(e), got, want)
		}
	}
}

// Pruning must not change results, only cost: compiled with and without
// it, every expression has the distribution possible-worlds enumeration
// gives it.
func TestAblationsPreserveDistributions(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := algebra.SemiringFor(algebra.Boolean)
	for trial := 0; trial < 25; trial++ {
		names := []string{"a", "b", "c", "d", "e"}
		reg := boolReg(0.35, names...)
		e := randomExpr(r, names, 2)
		want, err := worlds.Enumerate(e, reg, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []Options{{}, {DisablePruning: true}} {
			if got := distOf(t, New(s, reg, o), reg, s, e); !got.Equal(want, 1e-9) {
				t.Fatalf("%+v: %s\n got %v\nwant %v", o, expr.String(e), got, want)
			}
		}
	}
}

// Pruning rules: MIN terms above the threshold are removed (paper's
// example [x⊗10 +min y⊗20 ≤ 15] ignores y).
func TestPruningDropsIrrelevantMinTerms(t *testing.T) {
	reg := boolReg(0.5, "x", "y")
	s := algebra.SemiringFor(algebra.Boolean)
	e := expr.MustParse("[min(x @min 10, y @min 20) <= 15]")
	c := New(s, reg, Options{})
	res := mustCompile(t, c, e)
	if res.Stats.PrunedTerms != 1 {
		t.Errorf("PrunedTerms = %d, want 1", res.Stats.PrunedTerms)
	}
	d, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// P[1] = P[x present] = 0.5, independent of y.
	if got := d.P(value.Bool(true)); got != 0.5 {
		t.Errorf("P[Φ] = %v, want 0.5", got)
	}
	for _, v := range dtree.Variables(res.Root) {
		if v == "y" {
			t.Errorf("pruned variable y still appears in the d-tree")
		}
	}
}

// SUM interval rule: [Σ ≤ m] ≡ 1 when the total cannot exceed m.
func TestPruningSumIntervalRule(t *testing.T) {
	reg := boolReg(0.5, "x", "y")
	s := algebra.SemiringFor(algebra.Boolean)
	e := expr.MustParse("[sum(x @sum 3, y @sum 4) <= 10]")
	c := New(s, reg, Options{})
	res := mustCompile(t, c, e)
	if leaf, ok := res.Root.(*dtree.ConstLeaf); !ok || !leaf.V.IsOne() {
		t.Fatalf("constant-true comparison not folded: %s", dtree.String(res.Root))
	}
	// And the impossible case folds to 0.
	e = expr.MustParse("[sum(x @sum 3, y @sum 4) >= 10]")
	res = mustCompile(t, c, e)
	if leaf, ok := res.Root.(*dtree.ConstLeaf); !ok || !leaf.V.IsZero() {
		t.Fatalf("constant-false comparison not folded: %s", dtree.String(res.Root))
	}
}

// Capping bounds distribution sizes: a long COUNT sum compared against a
// small constant must keep intermediate distributions at O(c).
func TestCappingBoundsDistributionSize(t *testing.T) {
	reg := vars.NewRegistry()
	n := 40
	terms := make([]expr.Expr, n)
	for i := 0; i < n; i++ {
		x := fmt.Sprintf("x%d", i)
		reg.DeclareBool(x, 0.5)
		terms[i] = expr.Scale(algebra.Count, expr.V(x), value.Int(1))
	}
	e := expr.Compare(value.LE, expr.MSum(algebra.Count, terms...), expr.MConst{V: value.Int(3)})
	s := algebra.SemiringFor(algebra.Boolean)

	c := New(s, reg, Options{})
	res := mustCompile(t, c, e)
	d, stats, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxDistSize > 6 {
		t.Errorf("capped evaluation produced distribution of size %d, want ≤ 6", stats.MaxDistSize)
	}
	// Exact answer: P[Binomial(40, 0.5) ≤ 3].
	want := 0.0
	pw := 1.0
	for k := 0; k <= 3; k++ {
		want += binom(40, k) * pw
	}
	want /= float64(uint64(1) << 40)
	if got := d.P(value.Bool(true)); !almost(got, want, 1e-9) {
		t.Errorf("P[count ≤ 3] = %v, want %v", got, want)
	}

	// Ablation: without pruning the intermediate distributions grow to n+1.
	cNo := New(s, reg, Options{DisablePruning: true})
	resNo := mustCompile(t, cNo, e)
	_, statsNo, err := dtree.Evaluate(resNo.Root, dtree.Env{Semiring: s, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if statsNo.MaxDistSize <= 6 {
		t.Errorf("unpruned evaluation unexpectedly small: %d", statsNo.MaxDistSize)
	}
}

// TestCapSoundWithNegativeSummands: the evaluator clamps every partial sum
// under a cap, which is clamping the whole sum only when no summand is
// negative — under a cap at 3, 5 + 5 becomes 4, and 4 + (−3) passes ≤ 3
// where 10 − 3 does not. Over [5 + x0⊗5 + x1⊗(−3) + x2⊗4 θ c] for every
// θ ∈ {≤, ≥, <, =}, c ∈ 3…12 and order of the variable terms, the compiled
// answer is possible-worlds enumeration's at tolerance 0 (marginals ½ over
// three variables: every sum is exact).
func TestCapSoundWithNegativeSummands(t *testing.T) {
	reg := boolReg(0.5, "x0", "x1", "x2")
	s := algebra.SemiringFor(algebra.Boolean)
	terms := []expr.Expr{
		expr.Scale(algebra.Sum, expr.V("x0"), value.Int(5)),
		expr.Scale(algebra.Sum, expr.V("x1"), value.Int(-3)),
		expr.Scale(algebra.Sum, expr.V("x2"), value.Int(4)),
	}
	wrong := 0
	for _, th := range []value.Theta{value.LE, value.GE, value.LT, value.EQ} {
		for c := int64(3); c <= 12; c++ {
			for _, o := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
				sum := expr.MSum(algebra.Sum, expr.MConst{V: value.Int(5)}, terms[o[0]], terms[o[1]], terms[o[2]])
				e := expr.Compare(th, sum, expr.MConst{V: value.Int(c)})
				want, err := worlds.Enumerate(e, reg, s)
				if err != nil {
					t.Fatal(err)
				}
				if got := distOf(t, New(s, reg, Options{}), reg, s, e); !got.Equal(want, 0) {
					wrong++
					t.Errorf("%s: compiled %v, enumerated %v", expr.String(e), got, want)
				}
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d of 240 comparisons disagree with enumeration", wrong)
	}
}

func binom(n, k int) float64 {
	out := 1.0
	for i := 0; i < k; i++ {
		out = out * float64(n-i) / float64(i+1)
	}
	return out
}

func almost(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestMemoisationSharesSubtrees(t *testing.T) {
	reg := boolReg(0.5, "a", "b", "c", "d")
	s := algebra.SemiringFor(algebra.Boolean)
	// (a+b)*(c+d) + (a+b)*c — after Shannon on shared variables the
	// residual (a+b) sub-problems coincide.
	e := expr.MustParse("(a+b)*(c+d) + (a+b)*c")
	c := New(s, reg, Options{})
	res := mustCompile(t, c, e)
	if res.Stats.CacheHits == 0 {
		t.Errorf("expected cache hits, stats = %+v", res.Stats)
	}
}

func TestCompileErrors(t *testing.T) {
	reg := boolReg(0.5, "x")
	s := algebra.SemiringFor(algebra.Boolean)
	c := New(s, reg, Options{})
	// Undeclared variable.
	if _, err := c.CompileCtx(context.Background(), expr.V("ghost")); err == nil {
		t.Errorf("undeclared variable accepted")
	}
	// Ill-formed expression.
	if _, err := c.CompileCtx(context.Background(), expr.Add{Terms: []expr.Expr{expr.V("x"), expr.MInt(1)}}); err == nil {
		t.Errorf("ill-formed expression accepted")
	}
	// Node budget.
	names := make([]string, 14)
	regBig := vars.NewRegistry()
	for i := range names {
		names[i] = fmt.Sprintf("q%d", i)
		regBig.DeclareBool(names[i], 0.5)
	}
	// A dense non-factorable formula: pairwise products of all variables.
	var terms []expr.Expr
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			terms = append(terms, expr.Product(expr.V(names[i]), expr.V(names[j])))
		}
	}
	cLim := New(s, regBig, Options{MaxNodes: 50})
	if _, err := cLim.CompileCtx(context.Background(), expr.Sum(terms...)); err == nil {
		t.Errorf("node budget not enforced")
	}
}

func TestVariableChoiceHeuristics(t *testing.T) {
	e := expr.MustParse("often*rare + often + often*often")
	var vs expr.VarSet
	if x, name := chooseVariable(e, &vs); name != "often" || expr.VarName(x) != name || vs.Len() != 0 {
		t.Errorf("chose %q (ID of %q), want the most frequent variable \"often\", leaving %d variables in the set", name, expr.VarName(x), vs.Len())
	}
}

func TestComponentsPartition(t *testing.T) {
	terms := []expr.Expr{
		expr.Product(expr.V("a"), expr.V("b")),
		expr.Product(expr.V("c"), expr.V("d")),
		expr.Product(expr.V("b"), expr.V("e")),
		expr.CInt(1),
	}
	groups := new(scratch).components(terms, expr.AdoptSum)
	if len(groups) != 3 {
		t.Fatalf("components = %d groups, want 3", len(groups))
	}
}
