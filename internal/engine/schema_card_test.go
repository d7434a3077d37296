package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
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
	// Error paths agree with Eval's rejections.
	bad := []Plan{
		&Scan{Table: "nope"},
		&Project{Input: &GroupAgg{Input: &Scan{Table: "R"}, GroupBy: []string{"a"}, Aggs: []AggSpec{{Out: "X", Agg: algebra.Sum, Over: "b"}}}, Cols: []string{"X"}},
		&Union{L: &Scan{Table: "R"}, R: &Scan{Table: "T"}},
		&Join{L: &GroupAgg{Input: &Scan{Table: "R"}, GroupBy: []string{"a"}, Aggs: []AggSpec{{Out: "b", Agg: algebra.Sum, Over: "b"}}}, R: &Scan{Table: "R"}},
	}
	for _, p := range bad {
		if _, err := InferSchema(p, db); err == nil {
			t.Fatalf("%s: InferSchema accepted an invalid plan", p)
		}
	}
}

func TestEstimateCardinality(t *testing.T) {
	db := schemaCardDB(t)
	if got := EstimateCardinality(&Scan{Table: "R"}, db); got != 4 {
		t.Fatalf("scan estimate = %v, want 4", got)
	}
	// R ⋈ T on a: 4·2 / max(2, 2) = 4.
	if got := EstimateCardinality(&Join{L: &Scan{Table: "R"}, R: &Scan{Table: "T"}}, db); got != 4 {
		t.Fatalf("join estimate = %v, want 4", got)
	}
	// Equality selection divides by the distinct count of a (2).
	sel := &Select{Input: &Scan{Table: "R"}, Pred: Where(ColTheta("a", value.EQ, pvc.IntCell(1)))}
	if got := EstimateCardinality(sel, db); got != 2 {
		t.Fatalf("eq-select estimate = %v, want 2", got)
	}
	// Grouping caps at the distinct group keys.
	ga := &GroupAgg{Input: &Scan{Table: "R"}, GroupBy: []string{"a"}, Aggs: []AggSpec{{Out: "X", Agg: algebra.Count}}}
	if got := EstimateCardinality(ga, db); got != 2 {
		t.Fatalf("group estimate = %v, want 2", got)
	}
	// Prune is size-transparent.
	if got := EstimateCardinality(&Prune{Input: &Scan{Table: "R"}, Cols: []string{"a"}}, db); got != 4 {
		t.Fatalf("π̂ estimate = %v, want 4", got)
	}
}

// TestEstimatorConcurrent: one Estimator serves 8 goroutines estimating
// the same plans against one database — the query service's shape, where
// cached plans are re-estimated concurrently. Run under -race in CI; the
// assertions additionally pin that every goroutine sees the same
// (memoised) statistics.
func TestEstimatorConcurrent(t *testing.T) {
	db := schemaCardDB(t)
	est := NewEstimator(db)
	plans := []Plan{
		&Scan{Table: "R"},
		&Join{L: &Scan{Table: "R"}, R: &Scan{Table: "T"}},
		&GroupAgg{Input: &Scan{Table: "R"}, GroupBy: []string{"a"}, Aggs: []AggSpec{{Out: "X", Agg: algebra.Count}}},
		&Select{Input: &Scan{Table: "T"}, Pred: Where(ColTheta("a", value.LE, pvc.IntCell(5)))},
	}
	want := make([]float64, len(plans))
	for i, p := range plans {
		want[i] = NewEstimator(db).Estimate(p).Rows
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i, p := range plans {
					if got := est.Estimate(p).Rows; got != want[i] {
						errs <- fmt.Errorf("plan %d: rows %v, want %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
