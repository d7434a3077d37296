package vars

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
)

func TestDeclareAndLookup(t *testing.T) {
	r := NewRegistry()
	r.DeclareBool("x", 0.4)
	if !r.Has("x") || r.Has("y") {
		t.Errorf("Has broken")
	}
	d, err := r.Dist("x")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.P(value.Bool(true))-0.4) > 1e-12 {
		t.Errorf("declared distribution wrong: %v", d)
	}
	if _, err := r.Dist("y"); err == nil {
		t.Errorf("undeclared lookup should fail")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestDeclareEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("empty distribution accepted")
		}
	}()
	NewRegistry().Declare("x", prob.Dist{})
}

func TestRedeclareReplaces(t *testing.T) {
	r := NewRegistry()
	r.DeclareBool("x", 0.4)
	r.DeclareBool("x", 0.9)
	if r.Len() != 1 {
		t.Errorf("redeclare duplicated: Len = %d", r.Len())
	}
	if math.Abs(r.MustDist("x").P(value.Bool(true))-0.9) > 1e-12 {
		t.Errorf("redeclare did not replace")
	}
}

func TestNamesOrder(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"c", "a", "b"} {
		r.DeclareBool(n, 0.5)
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "c" || names[1] != "a" || names[2] != "b" {
		t.Errorf("Names = %v, want declaration order", names)
	}
}

func TestFresh(t *testing.T) {
	r := NewRegistry()
	a := r.Fresh("t", prob.Bernoulli(0.5))
	b := r.Fresh("t", prob.Bernoulli(0.5))
	if a == b {
		t.Errorf("Fresh returned duplicate name %q", a)
	}
	if !r.Has(a) || !r.Has(b) {
		t.Errorf("Fresh did not declare")
	}
}

func TestCheckDeclared(t *testing.T) {
	r := NewRegistry()
	r.DeclareBool("x", 0.5)
	if err := r.CheckDeclared(expr.MustParse("x*x")); err != nil {
		t.Errorf("CheckDeclared failed: %v", err)
	}
	if err := r.CheckDeclared(expr.MustParse("x*y")); err == nil {
		t.Errorf("CheckDeclared missed undeclared variable")
	}
	// The alphabetically first undeclared variable is reported, wherever
	// it occurs.
	err := r.CheckDeclared(expr.MustParse("cd_z*x + cd_b*[cd_a <= x]"))
	if err == nil || !strings.Contains(err.Error(), `"cd_a"`) {
		t.Errorf("CheckDeclared = %v, want cd_a reported", err)
	}
}

// TestCheckDeclaredDoesNotAllocate pins the per-compilation fixed cost:
// the check runs once per compiled tuple, on registries whose interned IDs
// run into the thousands, and must not size anything by them.
func TestCheckDeclaredDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	terms := make([]expr.Expr, 5000)
	for i := range terms {
		name := fmt.Sprintf("cda%d", i)
		r.DeclareBool(name, 0.5)
		terms[i] = expr.Scale(algebra.Sum, expr.Product(expr.V(name), expr.V("cda0")), value.Int(int64(i)))
	}
	var e expr.Expr = expr.Compare(value.LE, expr.MSum(algebra.Sum, terms...), expr.MInt(70))
	var err error
	if n := testing.AllocsPerRun(20, func() { err = r.CheckDeclared(e) }); n != 0 || err != nil {
		t.Errorf("CheckDeclared over 5000 declared variables: %v allocs/op (want 0), err %v", n, err)
	}
}

func TestEnumerateWeights(t *testing.T) {
	r := NewRegistry()
	r.DeclareBool("x", 0.25)
	r.DeclareBool("y", 0.5)
	total := 0.0
	worlds := 0
	err := r.Enumerate([]string{"x", "y"}, func(nu expr.Valuation, p float64) {
		total += p
		worlds++
		if len(nu) != 2 {
			t.Errorf("valuation incomplete: %v", nu)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if worlds != 4 {
		t.Errorf("worlds = %d, want 4", worlds)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("total probability = %v", total)
	}
}

func TestEnumerateUndeclared(t *testing.T) {
	r := NewRegistry()
	if err := r.Enumerate([]string{"nope"}, func(expr.Valuation, float64) {}); err == nil {
		t.Errorf("Enumerate accepted undeclared variable")
	}
}

func TestSampleFrequencies(t *testing.T) {
	r := NewRegistry()
	r.DeclareBool("x", 0.3)
	rng := rand.New(rand.NewSource(1))
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		nu, err := r.Sample([]string{"x"}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if nu["x"].Truth() {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.3) > 0.02 {
		t.Errorf("sample frequency %v too far from 0.3", freq)
	}
}

func TestWorldCount(t *testing.T) {
	r := NewRegistry()
	r.DeclareBool("x", 0.5)
	r.Declare("y", prob.FromPairs([]prob.Pair{
		{V: value.Int(0), P: 0.3}, {V: value.Int(1), P: 0.3}, {V: value.Int(2), P: 0.4},
	}))
	if got := r.WorldCount([]string{"x", "y"}); got != 6 {
		t.Errorf("WorldCount = %d, want 6", got)
	}
}

func TestReduceToBoolean(t *testing.T) {
	r := NewRegistry()
	r.Declare("x", prob.FromPairs([]prob.Pair{
		{V: value.Int(0), P: 0.25}, {V: value.Int(3), P: 0.5}, {V: value.Int(7), P: 0.25},
	}))
	b := r.ReduceToBoolean()
	d := b.MustDist("x")
	if math.Abs(d.P(value.Bool(false))-0.25) > 1e-12 || math.Abs(d.P(value.Bool(true))-0.75) > 1e-12 {
		t.Errorf("ReduceToBoolean = %v", d)
	}
}
