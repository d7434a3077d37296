package engine

import (
	"math"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
	"pvcagg/internal/worlds"
)

func smallDB() *pvc.Database {
	db := pvc.NewDatabase(algebra.Boolean)
	r := pvc.NewRelation("R", pvc.Schema{
		{Name: "a", Type: pvc.TValue},
		{Name: "b", Type: pvc.TValue},
	})
	for i, row := range [][2]int64{{1, 10}, {1, 20}, {2, 30}} {
		x := varName("r", i)
		db.Registry.DeclareBool(x, 0.5)
		r.MustInsert(expr.V(x), pvc.IntCell(row[0]), pvc.IntCell(row[1]))
	}
	db.Add(r)
	s := pvc.NewRelation("S2", pvc.Schema{
		{Name: "a", Type: pvc.TValue},
		{Name: "c", Type: pvc.TValue},
	})
	for i, row := range [][2]int64{{1, 100}, {2, 200}} {
		x := varName("s", i)
		db.Registry.DeclareBool(x, 0.5)
		s.MustInsert(expr.V(x), pvc.IntCell(row[0]), pvc.IntCell(row[1]))
	}
	db.Add(s)
	return db
}

func TestScanUnknownTable(t *testing.T) {
	db := smallDB()
	if _, err := eval(db, &Scan{Table: "nope"}); err == nil {
		t.Errorf("unknown table accepted")
	}
}

func TestRename(t *testing.T) {
	db := smallDB()
	rel, err := eval(db, &Rename{Input: &Scan{Table: "R"}, From: "b", To: "price"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Schema.Index("price") != 1 || rel.Schema.Index("b") != -1 {
		t.Errorf("rename failed: %v", rel.Schema.Names())
	}
	if _, err := eval(db, &Rename{Input: &Scan{Table: "R"}, From: "zz", To: "q"}); err == nil {
		t.Errorf("renaming unknown column accepted")
	}
	if _, err := eval(db, &Rename{Input: &Scan{Table: "R"}, From: "a", To: "b"}); err == nil {
		t.Errorf("renaming onto existing column accepted")
	}
}

func TestSelectConstantFilter(t *testing.T) {
	db := smallDB()
	rel, err := eval(db, &Select{
		Input: &Scan{Table: "R"},
		Pred:  Where(ColTheta("a", value.EQ, pvc.IntCell(1))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("σ[a=1] kept %d tuples, want 2", rel.Len())
	}
	// Column-to-column comparison.
	rel, err = eval(db, &Select{
		Input: &Scan{Table: "R"},
		Pred:  Where(ColThetaCol("a", value.LT, "b")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Errorf("σ[a<b] kept %d tuples, want 3", rel.Len())
	}
	if _, err := eval(db, &Select{Input: &Scan{Table: "R"}, Pred: Where(ColTheta("zz", value.EQ, pvc.IntCell(0)))}); err == nil {
		t.Errorf("unknown column accepted")
	}
}

// TestSelectThetaBoundaries pins what each θ means at its boundary, by
// hand-computed expectations: the commuting oracle runs the same σ on
// both sides of the diagram, so a comparison that is wrong in every world
// alike is invisible to it. Constants filter (R's b is 10, 20, 30);
// aggregation values condition the annotation (group a=1 has two
// independent tuples at p = 1/2, so its COUNT is 0, 1, 2 with probability
// 1/4, 1/2, 1/4 and the group exists unless it is 0).
func TestSelectThetaBoundaries(t *testing.T) {
	db := smallDB()
	count := &GroupAgg{Input: &Scan{Table: "R"}, GroupBy: []string{"a"}, Aggs: []AggSpec{{Out: "n", Agg: algebra.Count}}}
	for _, tc := range []struct {
		th   value.Theta
		kept int     // rows of σ[b θ 20](R)
		conf float64 // P[a=1 in σ[n θ 1]($[a; n←COUNT](R))]
	}{
		{value.LT, 1, 0}, {value.LE, 2, 0.5}, {value.EQ, 1, 0.5},
		{value.NE, 2, 0.25}, {value.GE, 2, 0.75}, {value.GT, 1, 0.25},
	} {
		rel, err := eval(db, &Select{Input: &Scan{Table: "R"}, Pred: Where(ColTheta("b", tc.th, pvc.IntCell(20)))})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != tc.kept {
			t.Errorf("σ[b%s20] kept %d tuples, want %d", tc.th, rel.Len(), tc.kept)
		}
		// The same comparison between two columns: b θ b2 with b2 = 20.
		twenty := &Rename{Input: &Select{Input: &Prune{Input: &Scan{Table: "R"}, Cols: []string{"b"}},
			Pred: Where(ColTheta("b", value.EQ, pvc.IntCell(20)))}, From: "b", To: "b2"}
		rel, err = eval(db, &Select{Input: &Product{L: &Scan{Table: "R"}, R: twenty}, Pred: Where(ColThetaCol("b", tc.th, "b2"))})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != tc.kept {
			t.Errorf("σ[b%sb2] over R×{20} kept %d tuples, want %d", tc.th, rel.Len(), tc.kept)
		}
		rel, err = eval(db, &Select{Input: count, Pred: Where(ColTheta("n", tc.th, pvc.IntCell(1)))})
		if err != nil {
			t.Fatal(err)
		}
		conf := 0.0
		if rel.Len() > 0 && rel.Tuples[0].Cells[0].Equal(pvc.IntCell(1)) {
			conf = exactResults(t, db, rel)[0].Confidence.Lo
		}
		if conf != tc.conf {
			t.Errorf("P[a=1 in σ[n%s1]] = %v, want %v", tc.th, conf, tc.conf)
		}
	}
}

func TestProjectSumsAnnotations(t *testing.T) {
	db := smallDB()
	rel, err := eval(db, &Project{Input: &Scan{Table: "R"}, Cols: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("π[a] has %d tuples, want 2", rel.Len())
	}
	// Annotation of a=1 is r0 + r1.
	got := expr.String(rel.Tuples[0].Ann)
	if got != "(r0 + r1)" {
		t.Errorf("π annotation = %s, want (r0 + r1)", got)
	}
}

func TestProjectRejectsModuleColumns(t *testing.T) {
	db := smallDB()
	agg := &GroupAgg{Input: &Scan{Table: "R"}, GroupBy: []string{"a"}, Aggs: []AggSpec{{Out: "m", Agg: algebra.Min, Over: "b"}}}
	if _, err := eval(db, &Project{Input: agg, Cols: []string{"m"}}); err == nil {
		t.Errorf("projection onto aggregation attribute accepted (Definition 5)")
	}
}

func TestProductAndDuplicateColumns(t *testing.T) {
	db := smallDB()
	if _, err := eval(db, &Product{L: &Scan{Table: "R"}, R: &Scan{Table: "R"}}); err == nil {
		t.Errorf("product with duplicate columns accepted")
	}
	renamed := &Rename{Input: &Rename{Input: &Scan{Table: "S2"}, From: "a", To: "a2"}, From: "c", To: "c2"}
	rel, err := eval(db, &Product{L: &Scan{Table: "R"}, R: renamed})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 6 {
		t.Errorf("product size = %d, want 6", rel.Len())
	}
	if len(rel.Schema) != 4 {
		t.Errorf("product schema = %v", rel.Schema.Names())
	}
	// Annotation is the product of the inputs'.
	if !strings.Contains(expr.String(rel.Tuples[0].Ann), "*") {
		t.Errorf("product annotation = %s", expr.String(rel.Tuples[0].Ann))
	}
}

func TestJoinMatchesProductSelectProject(t *testing.T) {
	db := smallDB()
	joined, err := eval(db, &Join{L: &Scan{Table: "R"}, R: &Scan{Table: "S2"}})
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent formulation: rename, product, select, project.
	renamed := &Rename{Input: &Scan{Table: "S2"}, From: "a", To: "a2"}
	manual, err := eval(db, &Project{
		Cols: []string{"a", "b", "c"},
		Input: &Select{
			Pred:  Where(ColEqCol("a", "a2")),
			Input: &Product{L: &Scan{Table: "R"}, R: renamed},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if joined.Len() != manual.Len() {
		t.Fatalf("join %d tuples vs manual %d", joined.Len(), manual.Len())
	}
	s := db.Semiring()
	for i := range joined.Tuples {
		// Cell orders agree (a, b, c); annotations must be equivalent.
		ja, ma := joined.Tuples[i].Ann, manual.Tuples[i].Ann
		da, err := worlds.Enumerate(ja, db.Registry, s)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := worlds.Enumerate(ma, db.Registry, s)
		if err != nil {
			t.Fatal(err)
		}
		if !da.Equal(dm, 1e-12) {
			t.Errorf("tuple %d: join annotation %s vs manual %s", i, expr.String(ja), expr.String(ma))
		}
	}
}

func TestJoinRejectsModuleKeys(t *testing.T) {
	db := smallDB()
	agg := &GroupAgg{Input: &Scan{Table: "R"}, GroupBy: []string{"a"}, Aggs: []AggSpec{{Out: "m", Agg: algebra.Min, Over: "b"}}}
	agg2 := &GroupAgg{Input: &Scan{Table: "S2"}, GroupBy: []string{"a"}, Aggs: []AggSpec{{Out: "m", Agg: algebra.Min, Over: "c"}}}
	if _, err := eval(db, &Join{L: agg, R: agg2}); err == nil {
		t.Errorf("join on aggregation column accepted")
	}
}

func TestUnionChecks(t *testing.T) {
	db := smallDB()
	if _, err := eval(db, &Union{L: &Scan{Table: "R"}, R: &Scan{Table: "S2"}}); err == nil {
		t.Errorf("union of incompatible schemas accepted")
	}
	rel, err := eval(db, &Union{L: &Scan{Table: "R"}, R: &Scan{Table: "R"}})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 3 {
		t.Errorf("self-union has %d tuples, want 3 (identical tuples collapse)", rel.Len())
	}
	// Under set semantics r0 + r0 is still just "present iff r0".
	d, err := worlds.Enumerate(rel.Tuples[0].Ann, db.Registry, db.Semiring())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.TruthProbability()-0.5) > 1e-12 {
		t.Errorf("self-union annotation probability = %v", d.TruthProbability())
	}
}

func TestGroupAggCount(t *testing.T) {
	db := smallDB()
	rel, err := eval(db, &GroupAgg{
		Input:   &Scan{Table: "R"},
		GroupBy: []string{"a"},
		Aggs:    []AggSpec{{Out: "n", Agg: algebra.Count}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("groups = %d, want 2", rel.Len())
	}
	results := exactResults(t, db, rel)
	// Group a=1 has two independent tuples at p=0.5: COUNT distribution
	// {0:0.25, 1:0.5, 2:0.25}; confidence = P[group non-empty] = 0.75.
	r0 := results[0]
	if math.Abs(r0.Confidence.Lo-0.75) > 1e-12 {
		t.Errorf("group confidence = %v, want 0.75", r0.Confidence.Lo)
	}
	d := r0.AggDists[0]
	if math.Abs(d.P(value.Int(0))-0.25) > 1e-12 || math.Abs(d.P(value.Int(1))-0.5) > 1e-12 || math.Abs(d.P(value.Int(2))-0.25) > 1e-12 {
		t.Errorf("COUNT distribution = %v", d)
	}
}

// Example 8: global aggregation over P1's weights yields one tuple with
// annotation 1K and the semimodule value z1⊗4 + z2⊗8 + z3⊗7 + z4⊗6.
func TestExample8GlobalAggregation(t *testing.T) {
	db := pvc.NewDatabase(algebra.Boolean)
	p1 := pvc.NewRelation("P1", pvc.Schema{
		{Name: "pid", Type: pvc.TValue},
		{Name: "weight", Type: pvc.TValue},
	})
	for i, row := range [][2]int64{{1, 4}, {2, 8}, {3, 7}, {4, 6}} {
		z := varName("z", i+1)
		db.Registry.DeclareBool(z, 0.5)
		p1.MustInsert(expr.V(z), pvc.IntCell(row[0]), pvc.IntCell(row[1]))
	}
	db.Add(p1)

	rel, err := eval(db, &GroupAgg{
		Input: &Scan{Table: "P1"},
		Aggs:  []AggSpec{{Out: "alpha", Agg: algebra.Min, Over: "weight"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("global aggregation produced %d tuples", rel.Len())
	}
	tup := rel.Tuples[0]
	if c, ok := tup.Ann.(expr.Const); !ok || !c.V.IsOne() {
		t.Errorf("annotation = %s, want 1K", expr.String(tup.Ann))
	}
	want := "min((z1 @min m:4), (z2 @min m:8), (z3 @min m:7), (z4 @min m:6))"
	if got := expr.String(tup.Cells[0].Expr()); got != want {
		t.Errorf("α = %s, want %s", got, want)
	}

	// π∅ σ5≤α of Example 8: the Boolean query "P[min weight ≥ 5]".
	sel, err := eval(db, &Project{Cols: nil, Input: &Select{
		Input: &GroupAgg{
			Input: &Scan{Table: "P1"},
			Aggs:  []AggSpec{{Out: "alpha", Agg: algebra.Min, Over: "weight"}},
		},
		Pred: Where(ColTheta("alpha", value.GE, pvc.IntCell(5))),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Len() != 1 {
		t.Fatalf("π∅ produced %d tuples", sel.Len())
	}
	results := exactResults(t, db, sel)
	// Brute force: min present weight ≥ 5 iff z1 absent (weight 4 is the
	// only one below 5); the empty minimum +∞ also satisfies ≥ 5.
	if math.Abs(results[0].Confidence.Lo-0.5) > 1e-12 {
		t.Errorf("P[min weight ≥ 5] = %v, want 0.5", results[0].Confidence.Lo)
	}
}

func TestGroupAggEmptyInputGlobal(t *testing.T) {
	db := pvc.NewDatabase(algebra.Boolean)
	r := pvc.NewRelation("E", pvc.Schema{{Name: "v", Type: pvc.TValue}})
	db.Add(r)
	rel, err := eval(db, &GroupAgg{
		Input: &Scan{Table: "E"},
		Aggs:  []AggSpec{{Out: "m", Agg: algebra.Min, Over: "v"}, {Out: "n", Agg: algebra.Count}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("global aggregation over empty input: %d tuples, want 1", rel.Len())
	}
	if got := rel.Tuples[0].Cells[0].Expr(); expr.String(got) != "m:+inf" {
		t.Errorf("MIN over empty input = %s, want m:+inf", expr.String(got))
	}
	if got := rel.Tuples[0].Cells[1].Expr(); expr.String(got) != "m:0" {
		t.Errorf("COUNT over empty input = %s, want m:0", expr.String(got))
	}
	// Grouped aggregation over empty input has no groups.
	rel, err = eval(db, &GroupAgg{
		Input:   &Scan{Table: "E"},
		GroupBy: []string{"v"},
		Aggs:    []AggSpec{{Out: "n", Agg: algebra.Count}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 {
		t.Errorf("grouped aggregation over empty input: %d tuples, want 0", rel.Len())
	}
}

func TestGroupAggErrors(t *testing.T) {
	db := smallDB()
	if _, err := eval(db, &GroupAgg{Input: &Scan{Table: "R"}, GroupBy: []string{"zz"}, Aggs: []AggSpec{{Out: "n", Agg: algebra.Count}}}); err == nil {
		t.Errorf("unknown group-by column accepted")
	}
	if _, err := eval(db, &GroupAgg{Input: &Scan{Table: "R"}, Aggs: []AggSpec{{Out: "m", Agg: algebra.Min, Over: "zz"}}}); err == nil {
		t.Errorf("unknown aggregation column accepted")
	}
}

func TestJointResult(t *testing.T) {
	db := smallDB()
	rel, err := eval(db, &GroupAgg{
		Input:   &Scan{Table: "R"},
		GroupBy: []string{"a"},
		Aggs:    []AggSpec{{Out: "n", Agg: algebra.Count}},
	})
	if err != nil {
		t.Fatal(err)
	}
	joint, err := JointResult(db, rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Outcomes are (annotation, count): (0,0) with 0.25, (1,1) 0.5, (1,2) 0.25.
	total := 0.0
	for _, o := range joint {
		total += o.P
		if o.Values[0] == "1" && o.Values[1] == "0" {
			t.Errorf("inconsistent outcome: group present with count 0")
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("joint mass = %v", total)
	}
	if _, err := JointResult(db, rel, 99); err == nil {
		t.Errorf("row out of range accepted")
	}
}

func TestPlanStrings(t *testing.T) {
	p := q2Plan(algebra.Max)
	s := p.String()
	for _, frag := range []string{"π[shop]", "σ[P<=50]", "$[shop;P←MAX(price)]", "⋈", "∪"} {
		if !strings.Contains(s, frag) {
			t.Errorf("plan string missing %q: %s", frag, s)
		}
	}
}
