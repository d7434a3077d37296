package opt

import (
	"context"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/engine"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// optDB builds R(a,b) [4 rows], S(a,c) [2 rows], T(a,b) [6 rows] and
// W(d,e) [2 rows], all tuple-independent at p = 1/2.
func optDB(t testing.TB) *pvc.Database {
	t.Helper()
	db := pvc.NewDatabase(algebra.Boolean)
	add := func(name, col2 string, rows [][2]int64) {
		rel := pvc.NewRelation(name, pvc.Schema{
			{Name: firstCol(name), Type: pvc.TValue},
			{Name: col2, Type: pvc.TValue},
		})
		for _, r := range rows {
			if _, err := db.InsertIndependent(rel, 0.5, pvc.IntCell(r[0]), pvc.IntCell(r[1])); err != nil {
				t.Fatal(err)
			}
		}
		db.Add(rel)
	}
	add("R", "b", [][2]int64{{0, 3}, {0, 5}, {1, 2}, {2, 7}})
	add("S", "c", [][2]int64{{0, 1}, {1, 4}})
	add("T", "b", [][2]int64{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}})
	add("V", "v", [][2]int64{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}})
	add("W", "e", [][2]int64{{0, 1}, {1, 2}})
	return db
}

func firstCol(table string) string {
	if table == "W" {
		return "d"
	}
	return "a"
}

// evalBoth asserts that the optimized plan produces the same relation and
// bit-identical probabilities as the original.
func evalBoth(t *testing.T, db *pvc.Database, naive, optimized engine.Plan) {
	t.Helper()
	ctx := context.Background()
	relN, _, err := engine.StreamEvalPlan(ctx, db, naive)
	if err != nil {
		t.Fatalf("naive eval: %v", err)
	}
	relO, _, err := engine.StreamEvalPlan(ctx, db, optimized)
	if err != nil {
		t.Fatalf("optimized eval (%s): %v", optimized, err)
	}
	if !relN.Schema.Equal(relO.Schema) {
		t.Fatalf("schemas differ: %v vs %v", relN.Schema.Names(), relO.Schema.Names())
	}
	if relN.Len() != relO.Len() {
		t.Fatalf("row counts differ: %d vs %d\nnaive %s\nopt %s", relN.Len(), relO.Len(), naive, optimized)
	}
	cfg := engine.ExecConfig{Parallelism: 1}
	outN, err := engine.Outcomes(ctx, db, relN, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outO, err := engine.Outcomes(ctx, db, relO, cfg)
	if err != nil {
		t.Fatalf("optimized outcomes (%s): %v", optimized, err)
	}
	for i := range outN {
		if outN[i].Tuple.Key() != outO[i].Tuple.Key() && constKey(outN[i].Tuple, relN.Schema) != constKey(outO[i].Tuple, relO.Schema) {
			t.Fatalf("tuple %d differs: %s vs %s", i, outN[i].Tuple.Key(), outO[i].Tuple.Key())
		}
		if outN[i].Confidence != outO[i].Confidence {
			t.Fatalf("tuple %d confidence differs: %v vs %v\nnaive %s\nopt %s",
				i, outN[i].Confidence, outO[i].Confidence, naive, optimized)
		}
		if len(outN[i].AggDists) != len(outO[i].AggDists) {
			t.Fatalf("tuple %d aggregate count differs", i)
		}
		for j := range outN[i].AggDists {
			if !outN[i].AggDists[j].Equal(outO[i].AggDists[j], 0) {
				t.Fatalf("tuple %d aggregate %d differs: %v vs %v", i, j, outN[i].AggDists[j], outO[i].AggDists[j])
			}
		}
	}
}

// constKey renders only the constant cells of a tuple, so reordered
// plans whose module expressions reassociate still compare.
func constKey(tp pvc.Tuple, schema pvc.Schema) string {
	var b strings.Builder
	for i, c := range tp.Cells {
		if schema[i].Type == pvc.TModule {
			continue
		}
		b.WriteString(c.Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}

func TestPushdownBelowJoin(t *testing.T) {
	db := optDB(t)
	naive := &engine.Select{
		Input: &engine.Join{L: &engine.Scan{Table: "R"}, R: &engine.Scan{Table: "S"}},
		Pred: engine.Where(
			engine.ColTheta("b", value.LE, pvc.IntCell(4)),
			engine.ColTheta("c", value.GE, pvc.IntCell(2)),
			engine.ColTheta("a", value.NE, pvc.IntCell(1)),
		),
	}
	got := Optimize(naive, db)
	s := got.String()
	// b filters R, c filters S, a (the join key) filters both sides; no
	// selection survives above the join.
	if strings.HasPrefix(s, "σ") {
		t.Fatalf("selection not pushed down: %s", s)
	}
	if !strings.Contains(s, "σ[b<=4∧a!=1]") || !strings.Contains(s, "σ[c>=2∧a!=1]") {
		t.Fatalf("pushdown shape: %s", s)
	}
	evalBoth(t, db, naive, got)
}

func TestPushdownThroughUnionAndGroup(t *testing.T) {
	db := optDB(t)
	naive := &engine.Select{
		Input: &engine.GroupAgg{
			Input:   &engine.Union{L: &engine.Scan{Table: "R"}, R: &engine.Scan{Table: "T"}},
			GroupBy: []string{"a"},
			Aggs:    []engine.AggSpec{{Out: "X", Agg: algebra.Max, Over: "b"}},
		},
		Pred: engine.Where(
			engine.ColTheta("a", value.LE, pvc.IntCell(1)),
			engine.ColTheta("X", value.GE, pvc.IntCell(3)), // module atom: must stay
		),
	}
	got := Optimize(naive, db)
	s := got.String()
	if !strings.Contains(s, "σ[X>=3]($") {
		t.Fatalf("module atom moved: %s", s)
	}
	if !strings.Contains(s, "(σ[a<=1](R) ∪ σ[a<=1](T))") {
		t.Fatalf("group-key filter not pushed through $ and ∪: %s", s)
	}
	evalBoth(t, db, naive, got)
}

func TestFusionProductToJoin(t *testing.T) {
	db := optDB(t)
	// π[a,b,c](σ[a=a2](R × δ[a2←a]... )) — a2 is dead above the σ.
	renamed := &engine.Rename{Input: &engine.Scan{Table: "S"}, From: "a", To: "a2"}
	naive := &engine.Project{
		Cols: []string{"a", "b", "c"},
		Input: &engine.Select{
			Input: &engine.Product{L: &engine.Scan{Table: "R"}, R: renamed},
			Pred:  engine.Where(engine.ColThetaCol("a", value.EQ, "a2")),
		},
	}
	got := Optimize(naive, db)
	s := got.String()
	if !strings.Contains(s, "⋈") || strings.Contains(s, "×") {
		t.Fatalf("product not fused into join: %s", s)
	}
	if strings.Contains(s, "σ[a=a2]") {
		t.Fatalf("equality atom survived fusion: %s", s)
	}
	evalBoth(t, db, naive, got)
}

func TestFusionBlockedWhenColumnLive(t *testing.T) {
	db := optDB(t)
	renamed := &engine.Rename{Input: &engine.Scan{Table: "S"}, From: "a", To: "a2"}
	// a2 is part of the output: fusion would change the schema — blocked.
	naive := &engine.Select{
		Input: &engine.Product{L: &engine.Scan{Table: "R"}, R: renamed},
		Pred:  engine.Where(engine.ColThetaCol("a", value.EQ, "a2")),
	}
	got := Optimize(naive, db)
	if !strings.Contains(got.String(), "×") {
		t.Fatalf("fusion fired on a live column: %s", got)
	}
	evalBoth(t, db, naive, got)
}

func TestPruneDeadColumnsAndAggs(t *testing.T) {
	db := optDB(t)
	naive := &engine.Project{
		Cols: []string{"a"},
		Input: &engine.GroupAgg{
			Input:   &engine.Join{L: &engine.Scan{Table: "R"}, R: &engine.Scan{Table: "S"}},
			GroupBy: []string{"a"},
			Aggs: []engine.AggSpec{
				{Out: "X", Agg: algebra.Sum, Over: "b"},
				{Out: "Y", Agg: algebra.Min, Over: "c"},
			},
		},
	}
	got := Optimize(naive, db)
	s := got.String()
	// Both aggregates are dead above π[a]; the join prunes to its key.
	if strings.Contains(s, "X←") || strings.Contains(s, "Y←") {
		t.Fatalf("dead aggregates kept: %s", s)
	}
	if !strings.Contains(s, "π̂[a](R)") || !strings.Contains(s, "π̂[a](S)") {
		t.Fatalf("dead scan columns kept: %s", s)
	}
	evalBoth(t, db, naive, got)
}

func TestPruneBlockedUnderUnion(t *testing.T) {
	db := optDB(t)
	// b is dead above the union, but pruning it below ∪ would collapse
	// tuples that differ only in b and change the summed annotations.
	naive := &engine.Project{
		Cols:  []string{"a"},
		Input: &engine.Union{L: &engine.Scan{Table: "R"}, R: &engine.Scan{Table: "T"}},
	}
	got := Optimize(naive, db)
	if strings.Contains(got.String(), "π̂") {
		t.Fatalf("pruned below a union: %s", got)
	}
	evalBoth(t, db, naive, got)
}

func TestReorderJoinsByCardinality(t *testing.T) {
	db := optDB(t)
	// V (6 rows) ⋈ R (4) ⋈ S (2): greedy should join the small pair
	// first. All three share (only) column a, so every order is connected.
	naive := &engine.Join{
		L: &engine.Join{L: &engine.Scan{Table: "V"}, R: &engine.Scan{Table: "R"}},
		R: &engine.Scan{Table: "S"},
	}
	got := Optimize(naive, db)
	s := got.String()
	if !strings.Contains(s, "(R ⋈ S)") && !strings.Contains(s, "(S ⋈ R)") {
		t.Fatalf("small relations not joined first: %s", s)
	}
	// The output schema (column order) must be restored.
	wantSchema, _ := engine.InferSchema(naive, db)
	gotSchema, err := engine.InferSchema(got, db)
	if err != nil {
		t.Fatal(err)
	}
	if !wantSchema.Equal(gotSchema) {
		t.Fatalf("schema changed: %v vs %v", wantSchema.Names(), gotSchema.Names())
	}
	evalBoth(t, db, naive, got)
}

func TestReorderKeepsOptimalOrder(t *testing.T) {
	db := optDB(t)
	// S (2) ⋈ R (4) ⋈ V (6) is already the greedy order: the plan must
	// come back untouched.
	naive := &engine.Join{
		L: &engine.Join{L: &engine.Scan{Table: "S"}, R: &engine.Scan{Table: "R"}},
		R: &engine.Scan{Table: "V"},
	}
	got := reorder(naive, db, engine.NewEstimator(db))
	if got.String() != naive.String() {
		t.Fatalf("optimal order disturbed: %s -> %s", naive, got)
	}
}

// TestPruneDeadRenameOverUnprunableChild: dropping δ[b←a] when b is dead
// must not re-expose a from a child that cannot prune it (a ∪ keeps all
// its columns) — the re-exposed a would silently join with a sibling's a
// and change the key set. Regression test for the dead-rename rewrite.
func TestPruneDeadRenameOverUnprunableChild(t *testing.T) {
	db := pvc.NewDatabase(algebra.Boolean)
	add := func(name string, cols []string, rows [][3]int64, width int) {
		schema := make(pvc.Schema, width)
		for i := 0; i < width; i++ {
			schema[i] = pvc.Col{Name: cols[i], Type: pvc.TValue}
		}
		rel := pvc.NewRelation(name, schema)
		for _, r := range rows {
			cells := make([]pvc.Cell, width)
			for i := 0; i < width; i++ {
				cells[i] = pvc.IntCell(r[i])
			}
			if _, err := db.InsertIndependent(rel, 0.5, cells...); err != nil {
				t.Fatal(err)
			}
		}
		db.Add(rel)
	}
	add("U1", []string{"k", "a", "x"}, [][3]int64{{1, 10, 7}}, 3)
	add("U2", []string{"k", "a", "x"}, [][3]int64{{1, 20, 8}}, 3)
	add("L", []string{"k", "a"}, [][3]int64{{1, 99}}, 2)
	// L ⋈ δ[b←a](U1 ∪ U2), keeping x and L's a: b is dead, but a must not
	// resurface below the join (the key set is {k}, not {k, a}).
	naive := &engine.Project{
		Cols: []string{"x", "a"},
		Input: &engine.Join{
			L: &engine.Scan{Table: "L"},
			R: &engine.Rename{
				Input: &engine.Union{L: &engine.Scan{Table: "U1"}, R: &engine.Scan{Table: "U2"}},
				From:  "a", To: "b",
			},
		},
	}
	got := Optimize(naive, db)
	evalBoth(t, db, naive, got)
	// The cross-product variant must stay evaluable (no duplicate column).
	naiveProd := &engine.Project{
		Cols: []string{"x"},
		Input: &engine.Product{
			L: &engine.Prune{Input: &engine.Scan{Table: "L"}, Cols: []string{"a"}},
			R: &engine.Rename{
				Input: &engine.Union{L: &engine.Scan{Table: "U1"}, R: &engine.Scan{Table: "U2"}},
				From:  "a", To: "b",
			},
		},
	}
	gotProd := Optimize(naiveProd, db)
	evalBoth(t, db, naiveProd, gotProd)
}

func TestOptimizeInvalidPlanPassesThrough(t *testing.T) {
	db := optDB(t)
	bad := &engine.Select{
		Input: &engine.Scan{Table: "nosuch"},
		Pred:  engine.Where(engine.ColTheta("a", value.EQ, pvc.IntCell(1))),
	}
	if got := Optimize(bad, db); got != engine.Plan(bad) {
		t.Fatalf("invalid plan rewritten: %v", got)
	}
}
