package expr

import (
	"math/rand"
	"sync"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/value"
)

func TestInternIsIdempotentAndDense(t *testing.T) {
	a := Intern("intern_test_x")
	b := Intern("intern_test_x")
	if a != b {
		t.Fatalf("Intern not idempotent: %d != %d", a, b)
	}
	if a == 0 {
		t.Fatal("Intern returned the zero (unset) ID")
	}
	if VarName(a) != "intern_test_x" {
		t.Fatalf("VarName round-trip failed: %q", VarName(a))
	}
	c := Intern("intern_test_y")
	if c == a {
		t.Fatal("distinct names interned to one ID")
	}
}

func TestInternConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	ids := make([]VarID, 16)
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := Intern("intern_conc_shared")
				if ids[g] == 0 {
					ids[g] = id
				} else if ids[g] != id {
					t.Errorf("goroutine %d: unstable ID %d vs %d", g, ids[g], id)
					return
				}
				Intern("intern_conc_" + string(rune('a'+i%26)))
			}
		}(g)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("goroutines disagree on interned ID: %v", ids)
		}
	}
}

// randExpr builds a random well-formed semiring expression.
func randExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return V([]string{"hx", "hy", "hz", "hw"}[r.Intn(4)])
		case 1:
			return CInt(int64(r.Intn(5)))
		default:
			return CBool(r.Intn(2) == 0)
		}
	}
	switch r.Intn(4) {
	case 0:
		return Sum(randExpr(r, depth-1), randExpr(r, depth-1))
	case 1:
		return Product(randExpr(r, depth-1), randExpr(r, depth-1))
	case 2:
		return Compare(value.Theta(r.Intn(6)),
			Scale(algebra.Sum, randExpr(r, depth-1), value.Int(int64(r.Intn(9)))),
			MConst{V: value.Int(int64(r.Intn(9)))})
	default:
		return Compare(value.Theta(r.Intn(6)), randExpr(r, depth-1), randExpr(r, depth-1))
	}
}

// TestHashEqualMatchesCanonicalString checks the load-bearing invariant of
// the hash-consed memo tables: Equal coincides with equality of the
// canonical rendering (the previous memo key), and Equal implies equal
// hashes.
func TestHashEqualMatchesCanonicalString(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	exprs := make([]Expr, 0, 120)
	for i := 0; i < 120; i++ {
		exprs = append(exprs, randExpr(r, 3))
	}
	for i, a := range exprs {
		for _, b := range exprs[i:] {
			eq := Equal(a, b)
			if strEq := String(a) == String(b); eq != strEq {
				t.Fatalf("Equal=%v but string equality=%v for %s vs %s", eq, strEq, String(a), String(b))
			}
			if eq && Hash(a) != Hash(b) {
				t.Fatalf("equal expressions hash differently: %s", String(a))
			}
		}
	}
}

// TestHashCachedMatchesLiteral checks that constructor-built nodes (cached
// hash) and struct-literal-built nodes (lazy hash) agree.
func TestHashCachedMatchesLiteral(t *testing.T) {
	built := Sum(V("hx"), Product(V("hy"), CInt(2)))
	literal := Add{Terms: []Expr{Var{Name: "hx"}, Mul{Factors: []Expr{Var{Name: "hy"}, Const{V: value.Int(2)}}}}}
	if !Equal(built, literal) {
		t.Fatal("constructor-built and literal-built expressions not Equal")
	}
	if Hash(built) != Hash(literal) {
		t.Fatal("constructor-built and literal-built expressions hash differently")
	}
	if !HasVars(built) || !HasVars(literal) {
		t.Fatal("HasVars wrong on equivalent trees")
	}
}

// TestHashDistinguishes checks hashes differ across the distinctions the
// canonical rendering makes (sort, operator, monoid, value, order).
func TestHashDistinguishes(t *testing.T) {
	distinct := []Expr{
		V("hx"),
		CInt(1),
		MInt(1),
		Sum(V("hx"), V("hy")),
		Sum(V("hy"), V("hx")), // order matters
		Product(V("hx"), V("hy")),
		Scale(algebra.Sum, V("hx"), value.Int(1)),
		Scale(algebra.Count, V("hx"), value.Int(1)), // COUNT ≠ SUM in the memo
		Scale(algebra.Min, V("hx"), value.Int(1)),
		Compare(value.LE, V("hx"), CInt(1)),
		Compare(value.LT, V("hx"), CInt(1)),
	}
	for i, a := range distinct {
		for j, b := range distinct {
			if i == j {
				continue
			}
			if Equal(a, b) {
				t.Errorf("distinct expressions Equal: %s vs %s", String(a), String(b))
			}
			if Hash(a) == Hash(b) {
				t.Errorf("hash collision between intended-distinct cases %d and %d (%s vs %s)", i, j, String(a), String(b))
			}
		}
	}
}

// TestEqualCanonicalisesValues: Const values equal under Key compare
// equal, matching the rendering-based memo behaviour for infinities.
func TestEqualCanonicalisesValues(t *testing.T) {
	if !Equal(Const{V: value.PosInf()}, Const{V: value.PosInf()}) {
		t.Fatal("+inf consts not Equal")
	}
	if Equal(Const{V: value.PosInf()}, Const{V: value.NegInf()}) {
		t.Fatal("+inf equals -inf")
	}
}

func TestVarSetCollect(t *testing.T) {
	e := MustParse("vs_a*vs_b + vs_a + [min(vs_c @min 3) <= 2]")
	var s VarSet
	CollectVarsInto(e, &s)
	if s.Len() != 3 {
		t.Fatalf("VarSet has %d vars, want 3", s.Len())
	}
	if got := s.Count(Intern("vs_a")); got != 2 {
		t.Errorf("count(vs_a) = %d, want 2", got)
	}
	if !s.Has(Intern("vs_c")) || s.Has(Intern("vs_absent")) {
		t.Error("Has wrong")
	}
	// Agreement with the map-based VarCounts.
	counts := VarCounts(e)
	for name, n := range counts {
		if int(s.Count(Intern(name))) != n {
			t.Errorf("VarSet count of %s = %d, map says %d", name, s.Count(Intern(name)), n)
		}
	}
	s.Reset()
	if s.Len() != 0 || s.Has(Intern("vs_a")) {
		t.Error("Reset did not clear the set")
	}
	if !ContainsAny(e, mustSet("vs_b")) {
		t.Error("ContainsAny missed a present variable")
	}
	if ContainsAny(e, mustSet("vs_absent")) {
		t.Error("ContainsAny found an absent variable")
	}
	if !HasVarID(e, Intern("vs_c")) || HasVarID(e, Intern("vs_absent")) {
		t.Error("HasVarID wrong")
	}
}

func mustSet(names ...string) *VarSet {
	s := &VarSet{}
	for _, n := range names {
		CollectVarsInto(V(n), s)
	}
	return s
}
