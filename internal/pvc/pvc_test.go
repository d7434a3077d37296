package pvc

import (
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
)

func supplierSchema() Schema {
	return Schema{
		{Name: "sid", Type: TValue},
		{Name: "shop", Type: TString},
	}
}

func TestCellAccessors(t *testing.T) {
	c := IntCell(7)
	if c.Kind() != KindValue || c.Value() != value.Int(7) {
		t.Errorf("IntCell broken")
	}
	s := StringCell("M&S")
	if s.Kind() != KindString || s.Str() != "M&S" {
		t.Errorf("StringCell broken")
	}
	e := ExprCell(expr.MustParse("x @min 5"))
	if e.Kind() != KindExpr || expr.String(e.Expr()) != "(x @min m:5)" {
		t.Errorf("ExprCell broken: %v", e)
	}
	if c.Equal(s) || !c.Equal(IntCell(7)) {
		t.Errorf("Equal broken")
	}
	if c.Compare(IntCell(8)) >= 0 || s.Compare(StringCell("Gap")) <= 0 {
		t.Errorf("Compare broken")
	}
}

func TestCellPanics(t *testing.T) {
	for _, f := range []func(){
		func() { IntCell(1).Str() },
		func() { StringCell("x").Value() },
		func() { IntCell(1).Expr() },
		func() { ExprCell(expr.V("x")) }, // semiring expr in module cell
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSchemaOps(t *testing.T) {
	s := supplierSchema()
	if s.Index("shop") != 1 || s.Index("nope") != -1 {
		t.Errorf("Index broken")
	}
	if !s.Equal(s.Clone()) {
		t.Errorf("Clone/Equal broken")
	}
	if strings.Join(s.Names(), ",") != "sid,shop" {
		t.Errorf("Names = %v", s.Names())
	}
}

func TestInsertChecks(t *testing.T) {
	r := NewRelation("S", supplierSchema())
	if err := r.Insert(expr.V("x1"), IntCell(1), StringCell("M&S")); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(nil, IntCell(2), StringCell("Gap")); err != nil {
		t.Fatal(err)
	}
	if r.Tuples[1].Ann == nil {
		t.Errorf("nil annotation not defaulted to 1K")
	}
	if err := r.Insert(nil, IntCell(1)); err == nil {
		t.Errorf("arity mismatch accepted")
	}
	if err := r.Insert(nil, StringCell("oops"), StringCell("M&S")); err == nil {
		t.Errorf("type mismatch accepted")
	}
	if err := r.Insert(expr.MustParse("x @min 1"), IntCell(3), StringCell("Gap")); err == nil {
		t.Errorf("module annotation accepted")
	}
}

// Figure 1(a) supplier table with the Boolean possible worlds of
// Figure 3(a): SB keeps exactly the tuples whose variable is ⊤.
func TestPossibleWorldSetSemantics(t *testing.T) {
	db := NewDatabase(algebra.Boolean)
	s := NewRelation("S", supplierSchema())
	shops := []string{"M&S", "M&S", "M&S", "Gap", "Gap"}
	for i, shop := range shops {
		db.Registry.DeclareBool(varName(i), 0.5)
		s.MustInsert(expr.V(varName(i)), IntCell(int64(i+1)), StringCell(shop))
	}
	db.Add(s)
	nu := expr.Valuation{}
	for i := range shops {
		nu[varName(i)] = value.Bool(i == 1 || i == 4) // x2, x5 true
	}
	world, err := db.World(s, nu)
	if err != nil {
		t.Fatal(err)
	}
	if len(world) != 2 {
		t.Fatalf("world has %d tuples, want 2", len(world))
	}
	if world[0].Values[0] != value.Int(2) || world[0].Texts[1] != "M&S" {
		t.Errorf("world tuple 0 = %+v", world[0])
	}
	if world[1].Values[0] != value.Int(5) || world[1].Texts[1] != "Gap" {
		t.Errorf("world tuple 1 = %+v", world[1])
	}
}

// Figure 3(b): under the ℕ semiring annotations are multiplicities.
func TestPossibleWorldBagSemantics(t *testing.T) {
	db := NewDatabase(algebra.Natural)
	s := NewRelation("S", supplierSchema())
	db.Registry.Declare("x1", prob.FromPairs([]prob.Pair{
		{V: value.Int(0), P: 0.5}, {V: value.Int(2), P: 0.5},
	}))
	s.MustInsert(expr.V("x1"), IntCell(1), StringCell("M&S"))
	db.Add(s)
	world, err := db.World(s, expr.Valuation{"x1": value.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(world) != 1 || world[0].Mult != value.Int(2) {
		t.Fatalf("bag world = %+v", world)
	}
	world, err = db.World(s, expr.Valuation{"x1": value.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(world) != 0 {
		t.Fatalf("zero-multiplicity tuple kept: %+v", world)
	}
}

// Table 1: the four database semantics arise from the semiring choice and
// the shape of the variable distributions.
func TestTable1Semantics(t *testing.T) {
	// Deterministic set: Boolean semiring, point distributions.
	detSet := NewDatabase(algebra.Boolean)
	detSet.Registry.Declare("x", prob.Bernoulli(1))
	if detSet.Registry.MustDist("x").Size() != 1 {
		t.Errorf("deterministic set variable must have a point distribution")
	}
	// Probabilistic set: Boolean semiring, Bernoulli(p).
	probSet := NewDatabase(algebra.Boolean)
	probSet.Registry.DeclareBool("x", 0.7)
	if probSet.Registry.MustDist("x").Size() != 2 {
		t.Errorf("probabilistic set variable must have two outcomes")
	}
	// Deterministic bag: ℕ semiring, point distribution on a multiplicity.
	detBag := NewDatabase(algebra.Natural)
	detBag.Registry.Declare("x", prob.Point(value.Int(3)))
	// Probabilistic bag: ℕ semiring, distribution over multiplicities.
	probBag := NewDatabase(algebra.Natural)
	probBag.Registry.Declare("x", prob.FromPairs([]prob.Pair{
		{V: value.Int(0), P: 0.2}, {V: value.Int(1), P: 0.5}, {V: value.Int(2), P: 0.3},
	}))
	for _, db := range []*Database{detSet, probSet, detBag, probBag} {
		r := NewRelation("R", Schema{{Name: "a", Type: TValue}})
		r.MustInsert(expr.V("x"), IntCell(42))
		db.Add(r)
		// Every world is well-defined.
		err := db.Registry.Enumerate([]string{"x"}, func(nu expr.Valuation, p float64) {
			if _, werr := db.World(r, nu); werr != nil {
				t.Fatalf("World: %v", werr)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestInsertIndependent(t *testing.T) {
	db := NewDatabase(algebra.Boolean)
	r := NewRelation("R", Schema{{Name: "a", Type: TValue}})
	x, err := db.InsertIndependent(r, 0.25, IntCell(1))
	if err != nil {
		t.Fatal(err)
	}
	if !db.Registry.Has(x) {
		t.Errorf("fresh variable %q not declared", x)
	}
	y, _ := db.InsertIndependent(r, 0.25, IntCell(2))
	if x == y {
		t.Errorf("duplicate fresh variables")
	}
}

func TestDatabaseLookup(t *testing.T) {
	db := NewDatabase(algebra.Boolean)
	db.Add(NewRelation("R", Schema{{Name: "a", Type: TValue}}))
	if _, err := db.Relation("R"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Relation("nope"); err == nil {
		t.Errorf("unknown relation lookup succeeded")
	}
	if len(db.Names()) != 1 || db.Names()[0] != "R" {
		t.Errorf("Names = %v", db.Names())
	}
}

func TestRelationStringAndSort(t *testing.T) {
	r := NewRelation("S", supplierSchema())
	r.MustInsert(expr.V("b"), IntCell(2), StringCell("Gap"))
	r.MustInsert(expr.V("a"), IntCell(1), StringCell("M&S"))
	r.Sort()
	if r.Tuples[0].Cells[0].Value() != value.Int(1) {
		t.Errorf("Sort did not order by cells")
	}
	s := r.String()
	for _, frag := range []string{"S:", "sid", "shop", "Φ", "M&S", "Gap"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String missing %q:\n%s", frag, s)
		}
	}
}

func varName(i int) string { return string(rune('a'+i)) + "x" }

// keyRef is Key as it was before AppendKey existed: the rendering every
// group order, sort and digest downstream was built on.
func keyRef(c Cell) string {
	switch c.Kind() {
	case KindValue:
		return "v:" + c.Value().String()
	case KindString:
		return "s:" + c.Str()
	default:
		return "e:" + expr.String(c.Expr())
	}
}

func orderCells() []Cell {
	return []Cell{
		ValueCell(value.NegInf()), IntCell(-12), IntCell(0), IntCell(7), IntCell(10), ValueCell(value.PosInf()),
		StringCell(""), StringCell("Gap"), StringCell("M&S"), StringCell("M&S "), StringCell("s:"), StringCell("é"),
		ExprCell(expr.MustParse("x @min 5")), ExprCell(expr.MustParse("x @sum 5")),
	}
}

// TestAppendKeyMatchesKey: AppendKey emits exactly the bytes of the old
// Key rendering, appends (never overwrites), and Tuple.AppendKey joins
// them with 0x1f like Tuple.Key.
func TestAppendKeyMatchesKey(t *testing.T) {
	cells := orderCells()
	var want []string
	for _, c := range cells {
		want = append(want, keyRef(c))
		if got := c.Key(); got != keyRef(c) {
			t.Errorf("Key(%s) = %q, want %q", c, got, keyRef(c))
		}
		if got := string(c.AppendKey([]byte("pre"))); got != "pre"+keyRef(c) {
			t.Errorf("AppendKey(%s) = %q", c, got)
		}
	}
	tup := Tuple{Cells: cells}
	if got := tup.Key(); got != strings.Join(want, "\x1f") {
		t.Errorf("Tuple.Key = %q", got)
	}
	if got := string(tup.AppendKey(nil)); got != tup.Key() {
		t.Errorf("Tuple.AppendKey = %q, want %q", got, tup.Key())
	}
}

// TestCompareOrder: Compare orders same-kind cells as comparing their
// old Key renderings did for strings and expressions (the prefix is
// common) and numerically for values; kinds order value < string < expr;
// Equal and Satisfies are Compare read through θ.
func TestCompareOrder(t *testing.T) {
	sign := func(n int) int {
		switch {
		case n < 0:
			return -1
		case n > 0:
			return 1
		}
		return 0
	}
	cells := orderCells()
	for i, a := range cells {
		for j, b := range cells {
			want := sign(i - j)
			if a.Kind() == b.Kind() && a.Kind() != KindValue {
				want = strings.Compare(keyRef(a), keyRef(b))
			}
			got := a.Compare(b)
			if sign(got) != want {
				t.Errorf("Compare(%s, %s) = %d, want sign %d", a, b, got, want)
			}
			if a.Equal(b) != (want == 0) {
				t.Errorf("Equal(%s, %s) = %v", a, b, a.Equal(b))
			}
			for th, holds := range map[value.Theta]bool{
				value.EQ: want == 0, value.NE: want != 0, value.LT: want < 0,
				value.LE: want <= 0, value.GT: want > 0, value.GE: want >= 0,
			} {
				if a.Satisfies(th, b) != holds {
					t.Errorf("%s %s %s = %v, want %v", a, th, b, !holds, holds)
				}
			}
		}
	}
	a, b := StringCell("Gap"), StringCell("M&S")
	if n := testing.AllocsPerRun(100, func() { a.Compare(b) }); n != 0 {
		t.Errorf("string Compare allocates %v times", n)
	}
}
