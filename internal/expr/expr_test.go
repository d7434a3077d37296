package expr

import (
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/value"
)

var (
	boolS = algebra.SemiringFor(algebra.Boolean)
	natS  = algebra.SemiringFor(algebra.Natural)
)

func TestParseSemiring(t *testing.T) {
	e := MustParse("x1*y11*(z1 + z5)")
	if e.Kind() != KindSemiring {
		t.Fatalf("kind = %v", e.Kind())
	}
	vars := Vars(e)
	want := []string{"x1", "y11", "z1", "z5"}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vars, want)
		}
	}
}

func TestParseModuleAndConditional(t *testing.T) {
	e := MustParse("[min(x*y @min 5, (x+z) @min 10) <= 6]")
	c, ok := e.(Cmp)
	if !ok {
		t.Fatalf("not a Cmp: %T", e)
	}
	if c.L.Kind() != KindModule || c.R.Kind() != KindModule {
		t.Fatalf("conditional sides have kinds %v, %v", c.L.Kind(), c.R.Kind())
	}
	if _, ok := c.R.(MConst); !ok {
		t.Fatalf("constant side not coerced to MConst: %T", c.R)
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"x",
		"(x + y)",
		"(x*y)",
		"(x1*y11*(z1 + z5))",
		"(x @min m:5)",
		"min((x @min m:5), ((x + z) @min m:10))",
		"sum((x @sum m:3), (y @sum m:4))",
		"[x != 0]",
		"[min((x @min m:5)) <= m:6]",
		"[(x + y) >= 1]",
		"max((x @max m:-inf), (y @max m:7))",
	}
	for _, in := range inputs {
		e, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		s := String(e)
		e2, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(String(%q) = %q): %v", in, s, err)
		}
		if String(e2) != s {
			t.Errorf("round trip unstable: %q -> %q -> %q", in, s, String(e2))
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"x +",
		"x * ",
		"(x",
		"[x < ]",
		"[x 0]",
		"min()",
		"min(x, y)",    // semiring terms in a module sum
		"x @ 5",        // missing aggregation name
		"x @avg 5",     // unsupported aggregation
		"foo(x @min1)", // not an aggregation call
		"x ~ y",
		"x1 y11", // juxtaposition is not multiplication
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", in)
		}
	}
}

// Paper Example 6: α = xy ⊗ 5 +min (x+z) ⊗ 10 with ν: x↦2, y↦3, z↦0 over N
// evaluates to 5.
func TestEvalExample6(t *testing.T) {
	e := MustParse("min(x*y @min 5, (x+z) @min 10)")
	nu := Valuation{"x": value.Int(2), "y": value.Int(3), "z": value.Int(0)}
	got, err := Eval(e, nu, natS)
	if err != nil {
		t.Fatal(err)
	}
	if got != value.Int(5) {
		t.Errorf("Example 6 = %v, want 5", got)
	}
	// All variables to 0 gives the MIN neutral +∞.
	zero := Valuation{"x": value.Int(0), "y": value.Int(0), "z": value.Int(0)}
	got, err = Eval(e, zero, natS)
	if err != nil {
		t.Fatal(err)
	}
	if got != value.PosInf() {
		t.Errorf("all-zero valuation = %v, want +inf", got)
	}
}

// Paper Example 1 / Figure 1e: the valuation ν1 mapping x1, x2, y11, y21,
// z1, z2, z5 to ⊤ and all others to ⊥ satisfies the annotation Φ of M&S.
func TestEvalFigure1MandSAnnotation(t *testing.T) {
	phi := MustParse(`[max(
		x1*y11*(z1+z5) @max 10,
		x1*y12*z2 @max 50,
		x2*y21*(z1+z5) @max 11,
		x2*y22*z2 @max 60,
		x3*y33*z3 @max 60,
		x3*y34*z4 @max 15) <= 50]
		* [x1*y11*(z1+z5) + x1*y12*z2 + x2*y21*(z1+z5) + x2*y22*z2 + x3*y33*z3 + x3*y34*z4 != 0]`)
	nu := Valuation{}
	for _, x := range Vars(phi) {
		nu[x] = value.Bool(false)
	}
	for _, x := range []string{"x1", "x2", "y11", "y21", "z1", "z2", "z5"} {
		nu[x] = value.Bool(true)
	}
	got, err := Eval(phi, nu, boolS)
	if err != nil {
		t.Fatal(err)
	}
	if got != value.Bool(true) {
		t.Errorf("ν1(Φ) = %v, want ⊤ (paper Example 1)", got)
	}
	// A valuation with everything false leaves the group empty: Φ is ⊥.
	for x := range nu {
		nu[x] = value.Bool(false)
	}
	got, err = Eval(phi, nu, boolS)
	if err != nil {
		t.Fatal(err)
	}
	if got != value.Bool(false) {
		t.Errorf("empty-group Φ = %v, want ⊥", got)
	}
}

func TestEvalUnboundVariable(t *testing.T) {
	if _, err := Eval(MustParse("x*y"), Valuation{"x": value.Int(1)}, boolS); err == nil {
		t.Fatalf("unbound variable did not error")
	}
	if !strings.Contains(MustEvalPanics(t), "unbound") {
		t.Fatalf("MustEval should panic with unbound variable")
	}
}

func MustEvalPanics(t *testing.T) (msg string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			msg = r.(error).Error()
		}
	}()
	MustEval(MustParse("q"), Valuation{}, boolS)
	t.Fatalf("MustEval did not panic")
	return ""
}

func TestValidateRejectsSortErrors(t *testing.T) {
	bad := []Expr{
		Add{Terms: []Expr{V("x"), MInt(3)}},
		Mul{Factors: []Expr{V("x"), AggSum{Agg: algebra.Min, Terms: []Expr{MInt(3)}}}},
		Tensor{Agg: algebra.Min, Scalar: MInt(1), Mod: MInt(3)},
		Tensor{Agg: algebra.Min, Scalar: V("x"), Mod: V("y")},
		AggSum{Agg: algebra.Min, Terms: []Expr{V("x")}},
		AggSum{Agg: algebra.Min, Terms: []Expr{Tensor{Agg: algebra.Sum, Scalar: V("x"), Mod: MInt(1)}}},
		Cmp{Th: value.LE, L: V("x"), R: MInt(3)},
		Add{},
		Mul{},
		AggSum{Agg: algebra.Min},
	}
	for i, e := range bad {
		if err := Validate(e); err == nil {
			t.Errorf("case %d: Validate accepted ill-formed expression", i)
		}
	}
}

func TestValidateAcceptsCountInsideSum(t *testing.T) {
	// COUNT is SUM over unit weights; mixing the two names is legal.
	e := AggSum{Agg: algebra.Count, Terms: []Expr{Tensor{Agg: algebra.Sum, Scalar: V("x"), Mod: MInt(1)}}}
	if err := Validate(e); err != nil {
		t.Errorf("COUNT/SUM mixing rejected: %v", err)
	}
}

func TestVarCounts(t *testing.T) {
	e := MustParse("x*(y + x) + z*x")
	counts := VarCounts(e)
	if counts["x"] != 3 || counts["y"] != 1 || counts["z"] != 1 {
		t.Errorf("VarCounts = %v", counts)
	}
	if !HasVars(e) {
		t.Errorf("HasVars = false")
	}
	if HasVars(MustParse("[3 <= 4]")) {
		t.Errorf("constant expression reported variables")
	}
}

func TestRestrictSemantics(t *testing.T) {
	e := Simplify(MustParse("x*(y + x)"), boolS)
	got := Restrict(e, Intern("x"), value.Bool(true), boolS)
	nu := Valuation{"y": value.Bool(false)}
	v, err := Eval(got, nu, boolS)
	if err != nil {
		t.Fatal(err)
	}
	if v != value.Bool(true) {
		t.Errorf("after x←⊤, y←⊥: %v, want ⊤", v)
	}
	if len(Vars(got)) != 1 || Vars(got)[0] != "y" {
		t.Errorf("Vars after restriction = %v", Vars(got))
	}
}

func TestSimplifyConstantFolding(t *testing.T) {
	cases := []struct {
		in   string
		want string
		s    algebra.Semiring
	}{
		{"x + 0", "x", boolS},
		{"x*1", "x", natS},
		{"x*0", "0", natS},
		{"0*x + y", "y", natS},
		{"1 + 0", "1", boolS},
		{"2 + 3", "5", natS},
		{"2*3", "6", natS},
		{"[3 <= 4]", "1", natS},
		{"[4 <= 3]", "0", natS},
		{"(x + (y + z))", "(x + y + z)", natS},
		{"x*(y*z)", "(x*y*z)", natS},
	}
	for _, c := range cases {
		got := String(Simplify(MustParse(c.in), c.s))
		if got != c.want {
			t.Errorf("Simplify(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSimplifyModule(t *testing.T) {
	// 0 ⊗ m collapses to the monoid neutral.
	e := Simplify(NewTensor(algebra.Min, CInt(0), MInt(7)), natS)
	if mc, ok := e.(MConst); !ok || mc.V != value.PosInf() {
		t.Errorf("0⊗7 under MIN = %v", String(e))
	}
	// 1 ⊗ α collapses to α.
	e = Simplify(NewTensor(algebra.Min, CInt(1), NewTensor(algebra.Min, V("x"), MInt(3))), natS)
	if String(e) != "(x @min m:3)" {
		t.Errorf("1⊗(x⊗3) = %v", String(e))
	}
	// Nested tensors flatten via (s1·s2)⊗m.
	e = Simplify(NewTensor(algebra.Min, V("y"), NewTensor(algebra.Min, V("x"), MInt(3))), natS)
	if String(e) != "((y*x) @min m:3)" {
		t.Errorf("y⊗(x⊗3) = %v", String(e))
	}
	// Neutral terms vanish from monoid sums.
	e = Simplify(MSum(algebra.Min, MConst{value.PosInf()}, Scale(algebra.Min, V("x"), value.Int(5))), natS)
	if String(e) != "(x @min m:5)" {
		t.Errorf("min(+inf, x⊗5) = %v", String(e))
	}
	// Fully constant aggregation folds.
	e = Simplify(MSum(algebra.Sum, MInt(3), MInt(4)), natS)
	if mc, ok := e.(MConst); !ok || mc.V != value.Int(7) {
		t.Errorf("sum(3,4) = %v", String(e))
	}
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	exprs := []string{
		"x*(y + 0) + 0*z + 1*w",
		"[min(x @min 5, 0 @min 3, y @min 9) >= 4]",
		"sum(x @sum 2, (y + 0*x) @sum 3)",
	}
	valuations := []Valuation{
		{"x": value.Bool(true), "y": value.Bool(false), "z": value.Bool(true), "w": value.Bool(false)},
		{"x": value.Bool(false), "y": value.Bool(true), "z": value.Bool(false), "w": value.Bool(true)},
		{"x": value.Bool(true), "y": value.Bool(true), "z": value.Bool(true), "w": value.Bool(true)},
	}
	for _, in := range exprs {
		e := MustParse(in)
		simp := Simplify(e, natS)
		for _, nu := range valuations {
			a, err := Eval(e, nu, natS)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Eval(simp, nu, natS)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("Simplify changed semantics of %q under %v: %v vs %v", in, nu, a, b)
			}
		}
	}
}

func TestKindStrings(t *testing.T) {
	if KindSemiring.String() != "semiring" || KindModule.String() != "module" {
		t.Errorf("Kind names wrong")
	}
}

func TestSumProductBuilders(t *testing.T) {
	e := Sum(V("a"), Sum(V("b"), V("c")))
	if a, ok := e.(Add); !ok || len(a.Terms) != 3 {
		t.Errorf("Sum did not flatten: %v", String(e))
	}
	e = Product(V("a"), Product(V("b"), V("c")))
	if m, ok := e.(Mul); !ok || len(m.Factors) != 3 {
		t.Errorf("Product did not flatten: %v", String(e))
	}
	if Sum(V("a")) != V("a") {
		t.Errorf("singleton Sum should unwrap")
	}
	e = MSum(algebra.Min, MSum(algebra.Min, MInt(1), MInt(2)), MInt(3))
	if a, ok := e.(AggSum); !ok || len(a.Terms) != 3 {
		t.Errorf("MSum did not flatten: %v", String(e))
	}
}
