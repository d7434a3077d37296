package expr

import (
	"fmt"
	"math/rand"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/value"
)

// substID is the plain substitution Φ[x := v] without renormalisation,
// sharing the sub-trees that do not mention x — the first half of the
// Simplify(SubstID(e, x, v)) idiom Restrict replaced on the Shannon hot
// path. It survives only here, as the specification Restrict is tested
// and benchmarked against.
func substID(e Expr, x VarID, v value.V) (Expr, bool) {
	switch n := e.(type) {
	case Var:
		if n.ID() == x {
			return Const{v}, true
		}
		return n, false
	case Const, MConst:
		return n, false
	case Add:
		if ts, changed := substAllID(n.Terms, x, v); changed {
			return newAdd(ts), true
		}
		return n, false
	case Mul:
		if fs, changed := substAllID(n.Factors, x, v); changed {
			return newMul(fs), true
		}
		return n, false
	case Tensor:
		sc, c1 := substID(n.Scalar, x, v)
		mod, c2 := substID(n.Mod, x, v)
		if !c1 && !c2 {
			return n, false
		}
		return NewTensor(n.Agg, sc, mod), true
	case AggSum:
		if ts, changed := substAllID(n.Terms, x, v); changed {
			return newAggSum(n.Agg, ts), true
		}
		return n, false
	case Cmp:
		l, c1 := substID(n.L, x, v)
		r, c2 := substID(n.R, x, v)
		if !c1 && !c2 {
			return n, false
		}
		return newCmp(n.Th, l, r), true
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}

func substAllID(es []Expr, x VarID, v value.V) ([]Expr, bool) {
	var out []Expr
	for i, e := range es {
		s, changed := substID(e, x, v)
		if changed && out == nil {
			out = make([]Expr, len(es))
			copy(out, es[:i])
		}
		if out != nil {
			out[i] = s
		}
	}
	return out, out != nil
}

// simplifySubst is the replaced two-pass idiom.
func simplifySubst(e Expr, x VarID, v value.V, s algebra.Semiring) Expr {
	sub, _ := substID(e, x, v)
	return Simplify(sub, s)
}

var restrictAggs = []algebra.Agg{algebra.Sum, algebra.Count, algebra.Min, algebra.Max, algebra.Prod}

// restrictGen draws random well-formed expressions of both sorts over a
// small variable pool: the conditional expressions of internal/gen
// (comparisons of semimodule sums of clause⊗value terms) for every
// monoid, plus the shapes gen never emits but the engine does — nested
// sums and products that are not flattened, nested tensors, constants in
// every position, COUNT terms inside SUM.
type restrictGen struct {
	r    *rand.Rand
	pool []string
}

func (g restrictGen) pick(n int) int { return g.r.Intn(n) }

func (g restrictGen) list(depth int, elem func(int) Expr) []Expr {
	out := make([]Expr, 2+g.pick(3))
	for i := range out {
		out[i] = elem(depth - 1)
	}
	return out
}

func (g restrictGen) semiring(depth int) Expr {
	if depth <= 0 || g.pick(4) == 0 {
		switch g.pick(5) {
		case 0:
			return CInt(int64(g.pick(4)))
		case 1:
			return CBool(g.pick(2) == 0)
		default:
			return V(g.pool[g.pick(len(g.pool))])
		}
	}
	switch g.pick(7) {
	case 0:
		return Sum(g.list(depth, g.semiring)...)
	case 1:
		return newAdd(g.list(depth, g.semiring)) // not flattened
	case 2:
		return Product(g.list(depth, g.semiring)...)
	case 3:
		return newMul(g.list(depth, g.semiring)) // not flattened
	case 4:
		return Compare(value.Theta(g.pick(6)), g.semiring(depth-1), g.semiring(depth-1))
	case 5:
		agg := restrictAggs[g.pick(len(restrictAggs))]
		return Compare(value.Theta(g.pick(6)), g.module(agg, depth-1), MInt(int64(g.pick(7))))
	default:
		l, r := restrictAggs[g.pick(len(restrictAggs))], restrictAggs[g.pick(len(restrictAggs))]
		return Compare(value.Theta(g.pick(6)), g.module(l, depth-1), g.module(r, depth-1))
	}
}

func (g restrictGen) module(agg algebra.Agg, depth int) Expr {
	inner := agg
	if agg == algebra.Sum && g.pick(3) == 0 {
		inner = algebra.Count // COUNT is SUM over unit weights
	}
	if depth <= 0 || g.pick(3) == 0 {
		if g.pick(4) == 0 {
			return MInt(int64(g.pick(4)))
		}
		return Scale(inner, g.semiring(depth-1), value.Int(int64(g.pick(4))))
	}
	mod := func(d int) Expr { return g.module(agg, d) }
	switch g.pick(4) {
	case 0:
		return NewTensor(inner, g.semiring(depth-1), g.module(agg, depth-1)) // nested ⊗
	case 1:
		return newAggSum(inner, g.list(depth, mod)) // not flattened
	default:
		return MSum(agg, g.list(depth, mod)...)
	}
}

func (g restrictGen) any(depth int) Expr {
	if g.pick(3) == 0 {
		return g.module(restrictAggs[g.pick(len(restrictAggs))], depth)
	}
	return g.semiring(depth)
}

// poison is what checkRestrict leaves in every slot of a scratch stack: a
// result that still pointed into the stack would show it.
var poison Expr = V("restrict_poisoned_scratch")

// checkRestrict asserts the contract of Restrict on one simplified
// expression and one (variable, value) pair: the result equals Simplify of
// the plain substitution, structurally and by hash; every node of it
// caches the hash, occurrence count and signature a rebuild computes; and
// it does not refer to the scratch it was computed on — a second Restrict
// on that scratch, and poison written over the whole stack, leave it what
// it was.
func checkRestrict(t *testing.T, e Expr, x VarID, v value.V, s algebra.Semiring) {
	t.Helper()
	var sc Scratch
	got := sc.Restrict(e, x, v, s)
	want := simplifySubst(e, x, v, s)
	if !Equal(got, want) || Hash(got) != Hash(want) {
		t.Fatalf("Restrict(%s, %s←%v) = %s (hash %x)\nSimplify(Subst) = %s (hash %x)",
			String(e), VarName(x), v, String(got), Hash(got), String(want), Hash(want))
	}
	checkSummaries(t, got)
	for _, name := range Vars(e) { // a later call that opens frames of its own
		if y := Intern(name); y != x {
			sc.Restrict(e, y, v, s)
			break
		}
	}
	sc.Restrict(e, x, s.One(), s)
	stack := sc.stack[:cap(sc.stack)]
	for i := range stack {
		stack[i] = poison
	}
	if !Equal(got, want) || String(got) != String(want) {
		t.Fatalf("Restrict(%s, %s←%v) changed under later use of its scratch: now %s, was %s",
			String(e), VarName(x), v, String(got), String(want))
	}
}

func checkIdempotent(t *testing.T, e Expr, s algebra.Semiring) {
	t.Helper()
	again := Simplify(e, s)
	if !Equal(again, e) || Hash(again) != Hash(e) {
		t.Fatalf("Simplify is not idempotent on %s: second pass gives %s", String(e), String(again))
	}
}

var restrictSink Expr

// TestRestrictEqualsSimplifySubst is the equivalence the compilers stand
// on: for every simplified e, variable x and value v, Restrict(e, x, v)
// is Equal and hash-equal to Simplify(Subst(e, x, v)); Simplify is
// idempotent; and restricting a variable e does not mention returns e
// without allocating.
func TestRestrictEqualsSimplifySubst(t *testing.T) {
	pool := []string{"rq0", "rq1", "rq2", "rq3", "rq4", "rq5"}
	absent := Intern("rq_absent")
	for _, tc := range []struct {
		s      algebra.Semiring
		values []value.V
	}{
		{boolS, []value.V{value.Bool(false), value.Bool(true)}},
		{natS, []value.V{value.Int(0), value.Int(1), value.Int(2), value.Int(3)}},
	} {
		g := restrictGen{r: rand.New(rand.NewSource(14)), pool: pool}
		triples := 0
		for i := 0; i < 4000; i++ {
			raw := g.any(2 + i%3)
			if err := Validate(raw); err != nil {
				t.Fatalf("generator produced an ill-formed expression %s: %v", String(raw), err)
			}
			e := Simplify(raw, tc.s)
			checkIdempotent(t, e, tc.s)
			for _, name := range Vars(e) {
				for _, v := range tc.values {
					checkRestrict(t, e, Intern(name), v, tc.s)
					triples++
				}
			}
			if out := Restrict(e, absent, tc.values[0], tc.s); !Equal(out, e) {
				t.Fatalf("restricting an absent variable changed %s into %s", String(e), String(out))
			}
			if i%50 == 0 {
				if n := testing.AllocsPerRun(10, func() { restrictSink = Restrict(e, absent, tc.values[0], tc.s) }); n != 0 {
					t.Fatalf("restricting an absent variable of %s allocates %v times", String(e), n)
				}
			}
		}
		if triples < 10000 {
			t.Errorf("%v semiring: only %d (expression, variable, value) triples checked, want ≥ 10000", tc.s.Kind(), triples)
		}
	}
}

func TestRestrictSharesUntouchedSubtrees(t *testing.T) {
	left := Product(V("sx"), V("sy"))
	right := Product(V("sz"), V("sw"))
	e := Sum(left, right)
	out := Restrict(e, Intern("sx"), value.Int(1), natS)
	if String(out) != "(sy + (sz*sw))" {
		t.Fatalf("Restrict = %s", String(out))
	}
	// The untouched right subtree must be the very same node (shared
	// slice), not a copy.
	rm := out.(Add).Terms[1].(Mul)
	if &rm.Factors[0] != &right.(Mul).Factors[0] {
		t.Error("untouched subtree was copied, not shared")
	}
	same := Restrict(e, Intern("s_not_present"), value.Int(0), natS)
	if &same.(Add).Terms[0] != &e.(Add).Terms[0] {
		t.Error("no-op restriction copied the expression")
	}
}

// FuzzRestrict feeds parsed expression strings through the same contract
// as TestRestrictEqualsSimplifySubst (checkRestrict: equivalence, cached
// summaries, no reference into the scratch). Run by the fuzz-smoke CI job;
// grow the corpus with `go test -fuzz FuzzRestrict ./internal/expr`.
func FuzzRestrict(f *testing.F) {
	for _, seed := range []string{
		"x1*y11*(z1 + z5)",
		"x*y @min 5",
		"min(x*y @min 5, (x+z) @min 10)",
		"[min(x @min 5, y @min 7) <= 6]",
		"[x1*y11 + x2 != 0]",
		"x*(y + 0) + 0*z + 1*w",
		"[min(x @min 5, 0 @min 3, y @min 9) >= 4]",
		"sum(x @sum 2, (y + 0*x) @sum 3)",
		"[sum(x*y @sum 2, (x + z) @count 1) = max(z @max 3, x @max 1)]",
		"prod(x @prod 2, (x*y) @prod 3)",
		"(x + (y + (z + x)))*x*(y*(z*1))",
		"[[x <= y] + x >= [y*z != 0]]",
	} {
		f.Add(seed, uint8(0), uint8(1), true)
	}
	f.Fuzz(func(t *testing.T, src string, pick, val uint8, natural bool) {
		raw, err := Parse(src)
		if err != nil || !smallConstants(raw) {
			return
		}
		s, v := boolS, value.Bool(val%2 == 1)
		if natural {
			s, v = natS, value.Int(int64(val%4))
		}
		e := Simplify(raw, s)
		checkIdempotent(t, e, s)
		names := append(Vars(e), "fuzz_absent")
		checkRestrict(t, e, Intern(names[int(pick)%len(names)]), v, s)
	})
}

// smallConstants reports whether every constant of e is a natural number
// small enough for PROD's m^s to terminate quickly.
func smallConstants(e Expr) bool {
	small := func(v value.V) bool { return v.IsInt() && v.Int64() >= 0 && v.Int64() <= 32 }
	switch n := e.(type) {
	case Var:
		return true
	case Const:
		return small(n.V)
	case MConst:
		return small(n.V)
	case Add:
		return allSmall(n.Terms)
	case Mul:
		return allSmall(n.Factors)
	case Tensor:
		return smallConstants(n.Scalar) && smallConstants(n.Mod)
	case AggSum:
		return allSmall(n.Terms)
	case Cmp:
		return smallConstants(n.L) && smallConstants(n.R)
	default:
		return false
	}
}

func allSmall(es []Expr) bool {
	for _, e := range es {
		if !smallConstants(e) {
			return false
		}
	}
	return true
}

// restrictBenchExpr is a §7.1-shaped comparison: 40 MIN terms of three
// clauses of three literals over 11 variables.
func restrictBenchExpr() (Expr, []VarID) {
	r := rand.New(rand.NewSource(7))
	ids := make([]VarID, 11)
	for i := range ids {
		ids[i] = Intern(fmt.Sprintf("rb%d", i))
	}
	terms := make([]Expr, 40)
	for i := range terms {
		clauses := make([]Expr, 3)
		for j := range clauses {
			lits := make([]Expr, 3)
			for k := range lits {
				lits[k] = VFromID(ids[r.Intn(len(ids))])
			}
			clauses[j] = Product(lits...)
		}
		terms[i] = Scale(algebra.Min, Sum(clauses...), value.Int(int64(r.Intn(200))))
	}
	return Simplify(Compare(value.LE, MSum(algebra.Min, terms...), MInt(60)), boolS), ids
}

// BenchmarkRestrict restricts as the compilers do: one Scratch kept across
// calls.
func BenchmarkRestrict(b *testing.B) {
	e, ids := restrictBenchExpr()
	var sc Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restrictSink = sc.Restrict(e, ids[i%len(ids)], value.Bool(i&16 == 0), boolS)
	}
}

// BenchmarkSimplifySubst is the two-pass reference Restrict replaced.
func BenchmarkSimplifySubst(b *testing.B) {
	e, ids := restrictBenchExpr()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restrictSink = simplifySubst(e, ids[i%len(ids)], value.Bool(i&16 == 0), boolS)
	}
}
