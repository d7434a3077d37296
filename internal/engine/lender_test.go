package engine

import (
	"context"
	"fmt"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/pvc/pvctest"
	"pvcagg/internal/testutil"
	"pvcagg/internal/value"
)

// lenderDB is iterDB plus M, a base table with an aggregation column —
// σ atoms over X are not hintable, so the scan's lent cells pass through
// σ untouched and reach whatever sits above it.
func lenderDB() *pvc.Database {
	db := iterDB()
	m := pvc.NewRelation("M", pvc.Schema{
		{Name: "a", Type: pvc.TValue},
		{Name: "X", Type: pvc.TModule, Agg: algebra.Sum},
	})
	for i, row := range []struct {
		a int64
		x string
	}{{1, "ir0 @sum 10"}, {2, "ir1 @sum 30"}, {1, "ir2 @sum 5"}} {
		x := varName("im", i)
		db.Registry.DeclareBool(x, 0.5)
		m.MustInsert(expr.V(x), pvc.IntCell(row.a), pvc.ExprCell(expr.MustParse(row.x)))
	}
	db.Add(m)
	return db
}

// lenderPlans adds to the corpus the shapes in which a lent row travels
// furthest: through σ (hintable, non-hintable, mixed) to the root, to π,
// π̂, ∪, $ and either side of a ⋈.
func lenderPlans() []Plan {
	scan := func(t string) Plan { return &Scan{Table: t} }
	sel := func(in Plan, atoms ...Atom) Plan { return &Select{Input: in, Pred: Where(atoms...)} }
	bLE20 := ColTheta("b", value.LE, pvc.IntCell(20))
	xGE10 := ColTheta("X", value.GE, pvc.IntCell(10))
	return append(iterPlans(),
		sel(scan("M"), xGE10),
		sel(scan("M"), ColTheta("a", value.EQ, pvc.IntCell(1)), xGE10),
		sel(scan("W"), ColTheta("name", value.EQ, pvc.StringCell("x"))),
		sel(scan("W"), ColTheta("name", value.GT, pvc.IntCell(3))), // mixed kinds
		&Prune{Input: sel(scan("R"), bLE20), Cols: []string{"b"}},
		&Project{Input: sel(scan("R"), bLE20), Cols: []string{"a"}},
		&Union{L: sel(scan("R"), bLE20), R: &Prune{Input: scan("R"), Cols: []string{"a", "b"}}},
		&Union{L: sel(scan("M"), xGE10), R: scan("M")}, // constraint 2: must error alike
		&Join{L: sel(scan("R"), bLE20), R: sel(scan("S2"), ColTheta("c", value.LE, pvc.IntCell(200)))},
		&Join{L: scan("M"), R: sel(scan("M"), xGE10)},
		&Product{L: scan("W"), R: &Rename{Input: sel(scan("R"), bLE20), From: "b", To: "b2"}},
		&GroupAgg{Input: sel(scan("R"), bLE20), Aggs: []AggSpec{{Out: "N", Agg: algebra.Count}}},
		&GroupAgg{Input: sel(scan("W"), ColTheta("b", value.GE, pvc.IntCell(20))), GroupBy: []string{"name"},
			Aggs: []AggSpec{{Out: "N", Agg: algebra.Count}, {Out: "S", Agg: algebra.Sum, Over: "b"}}},
	)
}

func explainShape(n *ExplainNode) string {
	s := n.label() + "("
	for _, c := range n.Children {
		s += explainShape(c)
	}
	return s + ")"
}

// sameOutcome asserts two runs of one plan agree: the same error text,
// or deeply equal relations.
func sameOutcome(t *testing.T, what string, want *pvc.Relation, errW error, got *pvc.Relation, errG error) {
	t.Helper()
	if (errW == nil) != (errG == nil) || (errW != nil && errW.Error() != errG.Error()) {
		t.Fatalf("%s: in-memory err %v, lender err %v", what, errW, errG)
	}
	if errW == nil {
		relEqual(t, want, got)
	}
}

// TestPoisonedLenderDifferential is the guard of the lent-row contract
// (pvc.TupleIter): every plan of the corpus must compute, bit for bit,
// over tables served by a provider that poisons each row buffer as soon
// as its loan ends — and that filters on hints and drops zero rows —
// what it computes over the same tables in memory. Lending R alone,
// everything but R, and everything puts the lender on the probe side,
// the build side and both sides of every ⋈, × and ∪. StreamEvalPlan,
// EXPLAIN ANALYZE and Iterate with an early break are all held to it;
// the estimator scans the lender for its statistics on the way. The
// in-memory reference is independent of what it guards: a sliceIter
// never lends.
func TestPoisonedLenderDifferential(t *testing.T) {
	ctx := context.Background()
	db := lenderDB()
	variants := []struct {
		name string
		db   *pvc.Database
	}{
		{"all", pvctest.LendingDatabase(db)},
		{"R", pvctest.LendingDatabase(db, "R")},
		{"notR", pvctest.LendingDatabase(db, "S2", "W", "E", "M")},
	}
	for i, plan := range lenderPlans() {
		want, _, errW := StreamEvalPlan(ctx, db, plan)
		_, _, wantEx, _ := StreamEvalPlanExplain(ctx, db, plan)
		for _, v := range variants {
			t.Run(fmt.Sprintf("plan%02d/%s", i, v.name), func(t *testing.T) {
				got, _, errG := StreamEvalPlan(ctx, v.db, plan)
				sameOutcome(t, "stream", want, errW, got, errG)

				got, _, gotEx, errG := StreamEvalPlanExplain(ctx, v.db, plan)
				sameOutcome(t, "analyze", want, errW, got, errG)
				if errG == nil {
					if explainShape(gotEx) != explainShape(wantEx) {
						t.Errorf("EXPLAIN shape: got %s, want %s", explainShape(gotEx), explainShape(wantEx))
					}
					if gotEx.ActualRows != int64(len(want.Tuples)) {
						t.Errorf("root actual rows = %d, want %d", gotEx.ActualRows, len(want.Tuples))
					}
				}

				if errW != nil {
					return
				}
				// Iterate: keep the first two tuples, break, and read them
				// only after the tree is closed.
				head := func(db *pvc.Database) *pvc.Relation {
					rel := pvc.NewRelation(want.Name, want.Schema)
					for tup, err := range Iterate(ctx, db, plan) {
						if err != nil {
							t.Fatal(err)
						}
						rel.Tuples = append(rel.Tuples, tup)
						if len(rel.Tuples) == 2 {
							break
						}
					}
					return rel
				}
				relEqual(t, head(db), head(v.db))
			})
		}
	}
}

// TestGroupKeyNoAllocOnHit pins the allocation shape of the keyed
// operators: $ over a two-group input builds each row's key into a
// reused buffer and looks it up without allocating, so ten times the
// rows — every one of them a hit on an existing group — allocate no
// more.
func TestGroupKeyNoAllocOnHit(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	build := func(rows int) *pvc.Database {
		db := pvc.NewDatabase(algebra.Natural)
		r := pvc.NewRelation("R", pvc.Schema{
			{Name: "g", Type: pvc.TString}, {Name: "h", Type: pvc.TValue}, {Name: "b", Type: pvc.TValue},
		})
		for i := 0; i < rows; i++ {
			r.MustInsert(expr.CInt(1), pvc.StringCell([]string{"returned", "shipped"}[i%2]), pvc.IntCell(int64(i%2)), pvc.IntCell(int64(i)))
		}
		db.Add(r)
		return db
	}
	plan := &GroupAgg{Input: &Scan{Table: "R"}, GroupBy: []string{"g", "h"},
		Aggs: []AggSpec{{Out: "N", Agg: algebra.Count}, {Out: "S", Agg: algebra.Sum, Over: "b"}}}
	allocs := func(rows int) float64 {
		db := build(rows)
		return testing.AllocsPerRun(5, func() {
			it, _, err := NewIterator(ctx, db, plan)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
			for n := 0; ; n++ {
				if _, ok, err := it.Next(); err != nil {
					t.Fatal(err)
				} else if !ok {
					if n != 2 {
						t.Fatalf("%d groups, want 2", n)
					}
					return
				}
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	t.Logf("$ over two groups: %.0f allocations for 200 rows, %.0f for 2000", small, large)
	if large > small+2 {
		t.Errorf("allocations grow with rows: %.0f for 200, %.0f for 2000", small, large)
	}
}
