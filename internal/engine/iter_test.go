package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/testutil"
	"pvcagg/internal/value"
)

// relEqual asserts two results are deeply equal: name, schema, tuple
// count, and per-tuple cells and annotation expression structure.
func relEqual(t *testing.T, want, got *pvc.Relation) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("name: got %q, want %q", got.Name, want.Name)
	}
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("schema: got %v, want %v", got.Schema.Names(), want.Schema.Names())
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("rows: got %d, want %d", len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		wt, gt := want.Tuples[i], got.Tuples[i]
		if len(gt.Cells) != len(wt.Cells) {
			t.Fatalf("row %d: got %d cells, want %d", i, len(gt.Cells), len(wt.Cells))
		}
		for j := range wt.Cells {
			if !gt.Cells[j].Equal(wt.Cells[j]) {
				t.Fatalf("row %d cell %d: got %s, want %s", i, j, gt.Cells[j], wt.Cells[j])
			}
		}
		if !expr.Equal(gt.Ann, wt.Ann) {
			t.Fatalf("row %d annotation: got %s, want %s", i, gt.Ann, wt.Ann)
		}
	}
}

// iterDB extends the usual two-table fixture with a string-keyed table,
// an empty table, and enough rows for duplicate collapsing.
func iterDB() *pvc.Database {
	db := pvc.NewDatabase(algebra.Boolean)
	r := pvc.NewRelation("R", pvc.Schema{
		{Name: "a", Type: pvc.TValue},
		{Name: "b", Type: pvc.TValue},
	})
	for i, row := range [][2]int64{{1, 10}, {1, 20}, {2, 30}, {2, 30}, {3, 10}} {
		x := varName("ir", i)
		db.Registry.DeclareBool(x, 0.5)
		r.MustInsert(expr.V(x), pvc.IntCell(row[0]), pvc.IntCell(row[1]))
	}
	db.Add(r)
	s := pvc.NewRelation("S2", pvc.Schema{
		{Name: "a", Type: pvc.TValue},
		{Name: "c", Type: pvc.TValue},
	})
	for i, row := range [][2]int64{{1, 100}, {2, 200}, {9, 900}} {
		x := varName("is", i)
		db.Registry.DeclareBool(x, 0.5)
		s.MustInsert(expr.V(x), pvc.IntCell(row[0]), pvc.IntCell(row[1]))
	}
	db.Add(s)
	w := pvc.NewRelation("W", pvc.Schema{
		{Name: "name", Type: pvc.TString},
		{Name: "b", Type: pvc.TValue},
	})
	for i, row := range []struct {
		n string
		v int64
	}{{"x", 10}, {"y", 20}, {"x", 30}} {
		x := varName("iw", i)
		db.Registry.DeclareBool(x, 0.5)
		w.MustInsert(expr.V(x), pvc.StringCell(row.n), pvc.IntCell(row.v))
	}
	db.Add(w)
	e := pvc.NewRelation("E", pvc.Schema{
		{Name: "a", Type: pvc.TValue},
		{Name: "b", Type: pvc.TValue},
	})
	db.Add(e)
	return db
}

// iterPlans is the hand-built plan corpus over iterDB: every operator,
// over full, empty and unknown tables, alone and composed.
func iterPlans() []Plan {
	scanR := func() Plan { return &Scan{Table: "R"} }
	groupSum := func(in Plan, out string) Plan {
		return &GroupAgg{Input: in, GroupBy: []string{"a"}, Aggs: []AggSpec{{Out: out, Agg: algebra.Sum, Over: "b"}}}
	}
	globalSum := func(in Plan, out string) Plan {
		return &GroupAgg{Input: in, Aggs: []AggSpec{{Out: out, Agg: algebra.Sum, Over: "b"}}}
	}
	plans := []Plan{
		scanR(),
		&Scan{Table: "E"},
		&Rename{Input: scanR(), From: "b", To: "price"},
		&Select{Input: scanR(), Pred: Where(ColTheta("a", value.EQ, pvc.IntCell(1)))},
		&Select{Input: scanR(), Pred: Where(ColThetaCol("a", value.LT, "b"))},
		&Select{Input: &Scan{Table: "E"}, Pred: Where(ColTheta("a", value.EQ, pvc.IntCell(1)))},
		&Project{Input: scanR(), Cols: []string{"a"}},
		&Project{Input: scanR(), Cols: []string{"b", "a"}},
		&Project{Input: &Scan{Table: "W"}, Cols: []string{"name"}},
		&Project{Input: &Scan{Table: "E"}, Cols: []string{"a"}},
		&Prune{Input: scanR(), Cols: []string{"b"}},
		&Prune{Input: &Scan{Table: "E"}, Cols: []string{"b", "a"}},
		&Join{L: scanR(), R: &Scan{Table: "S2"}},
		&Join{L: scanR(), R: scanR()}, // self-join on both columns
		&Join{L: &Scan{Table: "W"}, R: scanR()},
		&Join{L: scanR(), R: &Scan{Table: "E"}},
		&Join{L: &Scan{Table: "E"}, R: scanR()},
		&Product{L: scanR(), R: &Rename{Input: &Rename{Input: &Scan{Table: "S2"}, From: "a", To: "a2"}, From: "c", To: "c2"}},
		&Product{L: &Scan{Table: "E"}, R: &Rename{Input: &Rename{Input: &Scan{Table: "S2"}, From: "a", To: "a2"}, From: "c", To: "c2"}},
		&Union{L: scanR(), R: &Scan{Table: "E"}},
		&Union{L: scanR(), R: scanR()},
		&Union{L: scanR(), R: &Scan{Table: "T"}},
		groupSum(scanR(), "X"),
		globalSum(scanR(), "X"),
		globalSum(&Scan{Table: "E"}, "X"),
		groupSum(&Scan{Table: "E"}, "X"),
		&GroupAgg{Input: scanR(), GroupBy: []string{"a"}, Aggs: []AggSpec{
			{Out: "N", Agg: algebra.Count}, {Out: "M", Agg: algebra.Max, Over: "b"}}},
		// σ over a module column.
		&Select{Input: groupSum(scanR(), "X"), Pred: Where(ColTheta("X", value.GE, pvc.IntCell(30)))},
		// σ over ⋈.
		&Select{Input: &Join{L: scanR(), R: &Scan{Table: "S2"}},
			Pred: Where(ColTheta("c", value.GE, pvc.IntCell(150)))},
		// σ over ×: a column-vs-column comparison across sides.
		&Select{
			Input: &Product{L: scanR(), R: &Rename{Input: &Rename{Input: &Scan{Table: "S2"}, From: "a", To: "a2"}, From: "c", To: "c2"}},
			Pred:  Where(ColThetaCol("a", value.EQ, "a2"), ColTheta("b", value.LE, pvc.IntCell(20))),
		},
		// σ over × with no surviving pairs.
		&Select{
			Input: &Product{L: scanR(), R: &Rename{Input: &Rename{Input: &Scan{Table: "S2"}, From: "a", To: "a2"}, From: "c", To: "c2"}},
			Pred:  Where(ColTheta("b", value.GT, pvc.IntCell(1000))),
		},
		// σ over × mixing a constant comparison with a module atom.
		&Select{
			Input: &Product{
				L: &Rename{Input: groupSum(scanR(), "X"), From: "a", To: "ga"},
				R: &Rename{Input: groupSum(&Scan{Table: "S2"}, "Y"), From: "a", To: "gb"},
			},
			Pred: Where(ColThetaCol("ga", value.EQ, "gb"), ColThetaCol("X", value.LE, "Y")),
		},
		// Deep composition: π($ over σ(⋈)).
		&Project{
			Input: groupSum(&Select{
				Input: &Join{L: scanR(), R: &Scan{Table: "S2"}},
				Pred:  Where(ColTheta("c", value.LE, pvc.IntCell(200))),
			}, "X"),
			Cols: []string{"a"},
		},
	}
	return plans
}

// TestStreamEvalPlanMatchesEval holds StreamEvalPlan, on every plan of
// the corpus, to the evaluation of the same plan in each of iterDB's 2¹¹
// possible worlds. A plan the evaluator rejects must be one InferSchema
// rejects with the same error: static errors depend on the plan and the
// schemas alone.
func TestStreamEvalPlanMatchesEval(t *testing.T) {
	db := iterDB()
	for i, p := range iterPlans() {
		t.Run(fmt.Sprintf("plan%02d", i), func(t *testing.T) {
			if _, err := eval(db, p); err != nil {
				if _, serr := InferSchema(p, db); serr == nil || serr.Error() != err.Error() {
					t.Fatalf("plan %s: evaluation failed (%v), InferSchema says %v", p, err, serr)
				}
				return
			}
			checkCommutes(t, db, p)
		})
	}
}

// TestUnknownColumnOnEmptyInput pins the σ bugfix (column resolution
// hoisted out of the tuple loop) and its analogues: an unknown column
// must error even when the input relation is empty.
func TestUnknownColumnOnEmptyInput(t *testing.T) {
	db := iterDB()
	empty := func() Plan { return &Scan{Table: "E"} }
	cases := []struct {
		name string
		plan Plan
	}{
		{"select-left", &Select{Input: empty(), Pred: Where(ColTheta("zz", value.EQ, pvc.IntCell(1)))}},
		{"select-right", &Select{Input: empty(), Pred: Where(ColThetaCol("a", value.EQ, "zz"))}},
		{"project", &Project{Input: empty(), Cols: []string{"zz"}}},
		{"prune", &Prune{Input: empty(), Cols: []string{"zz"}}},
		{"select-over-join", &Select{Input: &Join{L: empty(), R: &Scan{Table: "S2"}},
			Pred: Where(ColTheta("zz", value.EQ, pvc.IntCell(1)))}},
		{"groupagg-groupby", &GroupAgg{Input: empty(), GroupBy: []string{"zz"},
			Aggs: []AggSpec{{Out: "N", Agg: algebra.Count}}}},
		{"groupagg-over", &GroupAgg{Input: empty(),
			Aggs: []AggSpec{{Out: "X", Agg: algebra.Sum, Over: "zz"}}}},
		{"rename", &Rename{Input: empty(), From: "zz", To: "q"}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := StreamEvalPlan(ctx, db, tc.plan); err == nil {
				t.Errorf("unknown column accepted over empty input")
			}
		})
	}
}

// TestRenameSharesTupleStorage pins the δ bugfix: δ is free — the
// result's tuples share the stored relation's cell storage (no per-tuple
// copy) — and the stored relation, schema included, is not mutated.
func TestRenameSharesTupleStorage(t *testing.T) {
	db := iterDB()
	in := pvc.NewRelation("IN", pvc.Schema{
		{Name: "a", Type: pvc.TValue},
		{Name: "b", Type: pvc.TValue},
	})
	in.MustInsert(expr.CInt(1), pvc.IntCell(1), pvc.IntCell(2))
	in.MustInsert(expr.CInt(1), pvc.IntCell(3), pvc.IntCell(4))
	db.Add(in)
	out, err := eval(db, &Rename{Input: &Scan{Table: "IN"}, From: "b", To: "price"})
	if err != nil {
		t.Fatal(err)
	}
	if &out.Tuples[0].Cells[0] != &in.Tuples[0].Cells[0] {
		t.Errorf("δ copied the cell storage instead of sharing it")
	}
	if in.Schema.Index("b") != 1 || in.Schema.Index("price") != -1 {
		t.Errorf("δ mutated the input schema: %v", in.Schema.Names())
	}
	if out.Schema.Index("price") != 1 || out.Schema.Index("b") != -1 {
		t.Errorf("δ output schema wrong: %v", out.Schema.Names())
	}
}

// TestIterateEmptyInput streams operators over empty inputs.
func TestIterateEmptyInput(t *testing.T) {
	db := iterDB()
	plans := []Plan{
		&Scan{Table: "E"},
		&Select{Input: &Scan{Table: "E"}, Pred: Where(ColTheta("a", value.EQ, pvc.IntCell(1)))},
		&Join{L: &Scan{Table: "E"}, R: &Scan{Table: "R"}},
		&Union{L: &Scan{Table: "E"}, R: &Scan{Table: "E"}},
	}
	for _, p := range plans {
		rel, _, err := StreamEvalPlan(context.Background(), db, p)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(rel.Tuples); n != 0 {
			t.Fatalf("plan %s: empty input yielded %d tuples", p, n)
		}
	}
}

// TestStreamEvalPlanCancelled: a cancelled context aborts at the up-front
// check, without leaking the stream's goroutines. Mid-stream polling is
// hit by the larger inputs of the generated differential under -race.
func TestStreamEvalPlanCancelled(t *testing.T) {
	checkLeaks := testutil.CheckGoroutines(t)
	defer checkLeaks()
	db := iterDB()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := StreamEvalPlan(ctx, db, &Scan{Table: "R"}); err == nil {
		t.Errorf("cancelled context accepted")
	}
}

// TestStreamRelationNames pins the compositional naming of result
// relations: a σ over a ⋈ shows in the name.
func TestStreamRelationNames(t *testing.T) {
	db := iterDB()
	plan := &Select{
		Input: &Join{L: &Scan{Table: "R"}, R: &Scan{Table: "S2"}},
		Pred:  Where(ColTheta("c", value.GE, pvc.IntCell(0))),
	}
	got, _, err := StreamEvalPlan(context.Background(), db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got.Name, "σ(") {
		t.Fatalf("name %q does not carry the σ wrapper", got.Name)
	}
}
