package expr

import (
	"math/rand"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/value"
)

// simplifyRef is Simplify as it was before it became copy-on-write: every
// composite node is rebuilt, by its fold, over a fresh slice of simplified
// children. It survives only here, as the reference Simplify is held to.
func simplifyRef(e Expr, s algebra.Semiring) Expr {
	switch n := e.(type) {
	case Add:
		return foldAdd(simplifyRefAll(n.Terms, s), s, false)
	case Mul:
		return foldMul(simplifyRefAll(n.Factors, s), s, false)
	case Tensor:
		return foldTensor(n.Agg, simplifyRef(n.Scalar, s), simplifyRef(n.Mod, s), s)
	case AggSum:
		return foldAggSum(n.Agg, simplifyRefAll(n.Terms, s), false)
	case Cmp:
		return foldCmp(n.Th, simplifyRef(n.L, s), simplifyRef(n.R, s), s)
	}
	return e
}

func simplifyRefAll(es []Expr, s algebra.Semiring) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = simplifyRef(e, s)
	}
	return out
}

// literalTree rebuilds every composite node of e as a struct literal:
// nothing in it carries a summary.
func literalTree(e Expr) Expr {
	switch n := e.(type) {
	case Add:
		return Add{Terms: literalAll(n.Terms)}
	case Mul:
		return Mul{Factors: literalAll(n.Factors)}
	case Tensor:
		return Tensor{Agg: n.Agg, Scalar: literalTree(n.Scalar), Mod: literalTree(n.Mod)}
	case AggSum:
		return AggSum{Agg: n.Agg, Terms: literalAll(n.Terms)}
	case Cmp:
		return Cmp{Th: n.Th, L: literalTree(n.L), R: literalTree(n.R)}
	}
	return e
}

func literalAll(es []Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = literalTree(e)
	}
	return out
}

// identical reports whether a and b are the same tree node for node: the
// same kinds, variables, operators and monoids, constants equal as values
// (not only under Key), and the same cached summaries.
func identical(a, b Expr) bool {
	ah, anv, asig, aok := cached(a)
	bh, bnv, bsig, bok := cached(b)
	if ah != bh || anv != bnv || asig != bsig || aok != bok {
		return false
	}
	switch x := a.(type) {
	case Var:
		y, ok := b.(Var)
		return ok && x.ID() == y.ID() && x.Name == y.Name
	case Const:
		y, ok := b.(Const)
		return ok && x == y
	case MConst:
		y, ok := b.(MConst)
		return ok && x == y
	case Add:
		y, ok := b.(Add)
		return ok && identicalAll(x.Terms, y.Terms)
	case Mul:
		y, ok := b.(Mul)
		return ok && identicalAll(x.Factors, y.Factors)
	case Tensor:
		y, ok := b.(Tensor)
		return ok && x.Agg == y.Agg && identical(x.Scalar, y.Scalar) && identical(x.Mod, y.Mod)
	case AggSum:
		y, ok := b.(AggSum)
		return ok && x.Agg == y.Agg && identicalAll(x.Terms, y.Terms)
	case Cmp:
		y, ok := b.(Cmp)
		return ok && x.Th == y.Th && identical(x.L, y.L) && identical(x.R, y.R)
	}
	return false
}

func identicalAll(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !identical(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameNode reports whether b is the very node a: the same children slice
// for an n-ary node, the same children for a binary one.
func sameNode(a, b Expr) bool {
	switch x := a.(type) {
	case Add:
		y, ok := b.(Add)
		return ok && len(x.Terms) == len(y.Terms) && &x.Terms[0] == &y.Terms[0]
	case Mul:
		y, ok := b.(Mul)
		return ok && len(x.Factors) == len(y.Factors) && &x.Factors[0] == &y.Factors[0]
	case AggSum:
		y, ok := b.(AggSum)
		return ok && len(x.Terms) == len(y.Terms) && &x.Terms[0] == &y.Terms[0]
	case Tensor:
		y, ok := b.(Tensor)
		return ok && sameNode(x.Scalar, y.Scalar) && sameNode(x.Mod, y.Mod)
	case Cmp:
		y, ok := b.(Cmp)
		return ok && sameNode(x.L, y.L) && sameNode(x.R, y.R)
	}
	return a == b
}

// checkCached fails unless every composite node of e carries its summary.
func checkCached(t *testing.T, e Expr) {
	t.Helper()
	if _, _, _, ok := cached(e); !ok {
		t.Fatalf("%s leaves Simplify without its cached summary", String(e))
	}
	for _, c := range children(e) {
		checkCached(t, c)
	}
}

// checkSimplify holds Simplify on e to the rebuild-everything reference:
// the same tree and hash; a result that carries its summaries on every
// composite node; and a second Simplify that returns its argument, the
// same children slice included.
func checkSimplify(t *testing.T, e Expr, s algebra.Semiring) {
	t.Helper()
	got, want := Simplify(e, s), simplifyRef(e, s)
	if !identical(got, want) || Hash(got) != Hash(want) {
		t.Fatalf("Simplify(%s) = %s (hash %x), the reference gives %s (hash %x)",
			String(e), String(got), Hash(got), String(want), Hash(want))
	}
	checkCached(t, got)
	checkSummaries(t, got)
	if again := Simplify(got, s); !sameNode(again, got) {
		t.Fatalf("Simplify rebuilt its own result %s", String(got))
	}
}

// TestSimplifyMatchesReference runs checkSimplify over the generator of
// the Restrict tests, on constructor-built trees and on the same trees as
// struct literals.
func TestSimplifyMatchesReference(t *testing.T) {
	pool := []string{"sq0", "sq1", "sq2", "sq3"}
	for _, s := range []algebra.Semiring{boolS, natS} {
		g := restrictGen{r: rand.New(rand.NewSource(50)), pool: pool}
		for i := 0; i < 3000; i++ {
			e := g.any(1 + i%4)
			checkSimplify(t, e, s)
			checkSimplify(t, literalTree(e), s)
		}
	}
}

var simplifySink Expr

// TestSimplifyOfSimplifiedAllocatesNothing: a simplified tree of each
// composite kind comes back as it is, with no allocation.
func TestSimplifyOfSimplifiedAllocatesNothing(t *testing.T) {
	x, y, z := V("sa_x"), V("sa_y"), V("sa_z")
	for _, src := range []Expr{
		Sum(Product(x, y), z, CInt(2)),
		Product(x, Sum(y, z), CInt(3)),
		Scale(algebra.Sum, Sum(x, y), value.Int(4)),
		MSum(algebra.Min, Scale(algebra.Min, x, value.Int(1)), Scale(algebra.Min, Product(y, z), value.Int(5)), MInt(7)),
		Compare(value.LE, MSum(algebra.Sum, Scale(algebra.Sum, x, value.Int(2)), Scale(algebra.Count, y, value.Int(1))), MInt(2)),
	} {
		e := Simplify(src, natS)
		if got := Simplify(e, natS); !sameNode(got, e) {
			t.Fatalf("Simplify rebuilt the simplified %s", String(e))
		}
		if n := testing.AllocsPerRun(20, func() { simplifySink = Simplify(e, natS) }); n != 0 {
			t.Errorf("Simplify of the simplified %s allocates %v times", String(e), n)
		}
	}
}

// FuzzSimplify holds Simplify to its rebuild-everything reference
// (checkSimplify) on parsed expressions and on generated ones, each also
// as struct literals. Run by the fuzz-smoke CI job; grow the corpus with
// `go test -fuzz FuzzSimplify ./internal/expr`.
func FuzzSimplify(f *testing.F) {
	for i, seed := range []string{
		"x*(y + 0) + 0*z + 1*w",
		"(x + (y + (z + x)))*x*(y*(z*1))",
		"sum(x @sum 2, (y + 0*x) @sum 3, 0 @sum 4)",
		"[min(x @min 5, 0 @min 3, y @min 9) >= 4]",
		"[2 <= 3] + x*[y*z != 0]",
		"prod(x @prod 2, (x*y) @prod 3, 1 @prod 5)",
		"((x*y) @sum (z @sum 3))",
	} {
		f.Add(seed, int64(i), i%2 == 0, i%3 == 0)
	}
	f.Fuzz(func(t *testing.T, src string, seed int64, natural, literal bool) {
		s := boolS
		if natural {
			s = natS
		}
		g := restrictGen{r: rand.New(rand.NewSource(seed)), pool: []string{"fs0", "fs1", "fs2"}}
		es := []Expr{g.any(3)}
		if raw, err := Parse(src); err == nil && smallConstants(raw) {
			es = append(es, raw)
		}
		for _, e := range es {
			if literal {
				e = literalTree(e)
			}
			checkSimplify(t, e, s)
		}
	})
}
