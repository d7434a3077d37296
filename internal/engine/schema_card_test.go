package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/pvc/pvctest"
	"pvcagg/internal/value"
)

// schemaCardDB builds a small two-table database: R(a, b) with 4 tuples
// over 2 distinct a-values and T(a, c) with 2 tuples.
func schemaCardDB(t *testing.T) *pvc.Database {
	t.Helper()
	db := pvc.NewDatabase(algebra.Boolean)
	r := pvc.NewRelation("R", pvc.Schema{
		{Name: "a", Type: pvc.TValue},
		{Name: "b", Type: pvc.TValue},
	})
	for i, row := range [][2]int64{{1, 10}, {1, 20}, {2, 30}, {2, 40}} {
		_ = i
		if _, err := db.InsertIndependent(r, 0.5, pvc.IntCell(row[0]), pvc.IntCell(row[1])); err != nil {
			t.Fatal(err)
		}
	}
	db.Add(r)
	s := pvc.NewRelation("T", pvc.Schema{
		{Name: "a", Type: pvc.TValue},
		{Name: "c", Type: pvc.TString},
	})
	for _, row := range []struct {
		a int64
		c string
	}{{1, "x"}, {2, "y"}} {
		if _, err := db.InsertIndependent(s, 0.5, pvc.IntCell(row.a), pvc.StringCell(row.c)); err != nil {
			t.Fatal(err)
		}
	}
	db.Add(s)
	return db
}

func TestPruneEval(t *testing.T) {
	db := schemaCardDB(t)
	p := &Prune{Input: &Scan{Table: "R"}, Cols: []string{"b"}}
	rel, err := eval(db, p)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 4 {
		t.Fatalf("π̂ collapsed tuples: got %d rows, want 4", rel.Len())
	}
	if got := rel.Schema.Names(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("π̂ schema = %v, want [b]", got)
	}
	// Both results are sorted, and R's b grows with (a, b).
	in, _ := eval(db, &Scan{Table: "R"})
	for i, tp := range rel.Tuples {
		if !expr.Equal(tp.Ann, in.Tuples[i].Ann) {
			t.Fatalf("π̂ changed annotation of tuple %d", i)
		}
	}
	// Column reordering is allowed (used to restore schemas after join
	// reordering).
	p2 := &Prune{Input: &Scan{Table: "R"}, Cols: []string{"b", "a"}}
	rel2, err := eval(db, p2)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel2.Schema.Names(); got[0] != "b" || got[1] != "a" {
		t.Fatalf("π̂ reorder schema = %v", got)
	}
	if _, err := eval(db, &Prune{Input: &Scan{Table: "R"}, Cols: []string{"zz"}}); err == nil {
		t.Fatal("π̂ of unknown column accepted")
	}
	if !strings.Contains(p.String(), "π̂[b]") {
		t.Fatalf("String() = %q", p.String())
	}
}

func TestInferSchemaMatchesEval(t *testing.T) {
	db := schemaCardDB(t)
	plans := []Plan{
		&Scan{Table: "R"},
		&Rename{Input: &Scan{Table: "R"}, From: "b", To: "b2"},
		&Select{Input: &Scan{Table: "R"}, Pred: Where(ColTheta("b", value.LE, pvc.IntCell(20)))},
		&Project{Input: &Scan{Table: "R"}, Cols: []string{"a"}},
		&Prune{Input: &Scan{Table: "R"}, Cols: []string{"b", "a"}},
		&Join{L: &Scan{Table: "R"}, R: &Scan{Table: "T"}},
		&Product{L: &Scan{Table: "R"}, R: &Rename{Input: &Rename{Input: &Scan{Table: "T"}, From: "a", To: "a2"}, From: "c", To: "c2"}},
		&GroupAgg{
			Input:   &Scan{Table: "R"},
			GroupBy: []string{"a"},
			Aggs:    []AggSpec{{Out: "X", Agg: algebra.Max, Over: "b"}},
		},
	}
	for _, p := range plans {
		want, err := eval(db, p)
		if err != nil {
			t.Fatalf("%s: Eval: %v", p, err)
		}
		got, err := InferSchema(p, db)
		if err != nil {
			t.Fatalf("%s: InferSchema: %v", p, err)
		}
		if !got.Equal(want.Schema) {
			t.Fatalf("%s: InferSchema = %v, Eval schema = %v", p, got.Names(), want.Schema.Names())
		}
	}
	// One rule per operator: every rejection is the same error from both.
	scan := func(t string) Plan { return &Scan{Table: t} }
	sumB := &GroupAgg{Input: scan("R"), GroupBy: []string{"a"}, Aggs: []AggSpec{{Out: "X", Agg: algebra.Sum, Over: "b"}}}
	count := []AggSpec{{Out: "N", Agg: algebra.Count}}
	bad := []Plan{
		scan("nope"),
		&Rename{Input: scan("R"), From: "zz", To: "q"},
		&Rename{Input: scan("R"), From: "a", To: "b"},
		&Select{Input: scan("R"), Pred: Where(ColThetaCol("a", value.EQ, "zz"))},
		&Select{Input: &Join{L: scan("R"), R: scan("T")}, Pred: Where(ColTheta("zz", value.EQ, pvc.IntCell(1)))},
		&Project{Input: sumB, Cols: []string{"X"}},
		&Project{Input: scan("R"), Cols: []string{"zz"}},
		&Prune{Input: scan("R"), Cols: []string{"zz"}},
		&Union{L: scan("R"), R: scan("T")},
		&Union{L: sumB, R: sumB},
		&Join{L: &GroupAgg{Input: scan("R"), GroupBy: []string{"a"}, Aggs: []AggSpec{{Out: "b", Agg: algebra.Sum, Over: "b"}}}, R: scan("R")},
		&Product{L: scan("R"), R: scan("T")},
		&GroupAgg{Input: scan("R"), GroupBy: []string{"zz"}, Aggs: count},
		&GroupAgg{Input: sumB, GroupBy: []string{"X"}, Aggs: count},
		&GroupAgg{Input: scan("R"), Aggs: []AggSpec{{Out: "S", Agg: algebra.Sum, Over: "zz"}}},
		&GroupAgg{Input: scan("T"), Aggs: []AggSpec{{Out: "S", Agg: algebra.Sum, Over: "c"}}},
	}
	for _, p := range bad {
		_, serr := InferSchema(p, db)
		_, eerr := eval(db, p)
		if serr == nil || eerr == nil || serr.Error() != eerr.Error() {
			t.Errorf("%s: InferSchema error %v, evaluation error %v", p, serr, eerr)
		}
	}
}

// TestRowBound holds each operator's bound to its rule, over in-memory
// relations and over providers, and a product too wide for int64 to the
// saturated bound.
func TestRowBound(t *testing.T) {
	db := schemaCardDB(t)
	r, tt := &Scan{Table: "R"}, &Scan{Table: "T"}
	count := []AggSpec{{Out: "X", Agg: algebra.Count}}
	cases := []struct {
		p    Plan
		want int64
	}{
		{r, 4},
		{&Scan{Table: "nosuch"}, 0},
		{&Rename{Input: r, From: "b", To: "z"}, 4},
		{&Select{Input: r, Pred: Where(ColTheta("a", value.EQ, pvc.IntCell(1)))}, 4},
		{&Project{Input: r, Cols: []string{"a"}}, 4},
		{&Prune{Input: r, Cols: []string{"a"}}, 4},
		{&Join{L: r, R: tt}, 8},
		{&Product{L: r, R: &Prune{Input: tt, Cols: []string{"c"}}}, 8},
		{&Union{L: r, R: r}, 8},
		{&GroupAgg{Input: r, GroupBy: []string{"a"}, Aggs: count}, 4},
		{&GroupAgg{Input: r, Aggs: count}, 1},
	}
	for _, c := range cases {
		if got := RowBound(c.p, db); got != c.want {
			t.Errorf("RowBound(%s) = %d, want %d", c.p, got, c.want)
		}
		if got := RowBound(c.p, pvctest.LendingDatabase(db)); got != c.want {
			t.Errorf("RowBound(%s) over providers = %d, want %d", c.p, got, c.want)
		}
	}
	// 4³² = 2⁶⁴ rows: the product saturates, and so does a ∪ over it.
	ra := &Prune{Input: r, Cols: []string{"a"}}
	wide := Plan(ra)
	for i := 0; i < 31; i++ {
		wide = &Product{L: wide, R: &Rename{Input: ra, From: "a", To: fmt.Sprintf("a%d", i)}}
	}
	if _, err := InferSchema(wide, db); err != nil {
		t.Fatal(err)
	}
	if got := RowBound(wide, db); got != math.MaxInt64 {
		t.Errorf("RowBound(R×…×R, 32 factors) = %d, want %d", got, int64(math.MaxInt64))
	}
	if got := RowBound(&Union{L: wide, R: wide}, db); got != math.MaxInt64 {
		t.Errorf("RowBound(wide ∪ wide) = %d, want %d", got, int64(math.MaxInt64))
	}
}
