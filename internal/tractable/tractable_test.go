package tractable

import (
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/engine"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// testDB declares three tuple-independent relations:
// R(a, b), S(b, c), T(c, d).
func testDB() *pvc.Database {
	db := pvc.NewDatabase(algebra.Boolean)
	mk := func(name string, cols ...string) {
		schema := make(pvc.Schema, len(cols))
		for i, c := range cols {
			schema[i] = pvc.Col{Name: c, Type: pvc.TValue}
		}
		rel := pvc.NewRelation(name, schema)
		cells := make([]pvc.Cell, len(cols))
		for i := range cells {
			cells[i] = pvc.IntCell(int64(i))
		}
		if _, err := db.InsertIndependent(rel, 0.5, cells...); err != nil {
			panic(err)
		}
		db.Add(rel)
	}
	mk("R", "a", "b")
	mk("S", "b", "c")
	mk("T", "c", "d")
	mk("U", "a") // unary relation sharing attribute a with R
	return db
}

func TestScanIsInd(t *testing.T) {
	db := testDB()
	v := Classify(&engine.Scan{Table: "R"}, db)
	if v.Class != Ind {
		t.Errorf("Scan class = %v (%s)", v.Class, v.Reason)
	}
}

// π_b(R ⋈ U): attributes a and the head b — hierarchical because
// at(a)={R,U} ⊇ at(b)... here the existential attribute a appears in both
// relations, b only in R: containment holds.
func TestHierarchicalJoinIsTractable(t *testing.T) {
	db := testDB()
	p := &engine.Project{
		Cols:  []string{"b"},
		Input: &engine.Join{L: &engine.Scan{Table: "R"}, R: &engine.Scan{Table: "U"}},
	}
	v := Classify(p, db)
	if v.Class == Hard {
		t.Errorf("hierarchical query classified hard: %s", v.Reason)
	}
}

// π_a(R ⋈ S): existential attributes b (in R, S) and c (in S only):
// at(b)={R,S} ⊇ at(c)={S} — hierarchical; head a is not a root attribute
// (only in R), so the class is Qhie, not Qind.
func TestHierarchicalNonRootHead(t *testing.T) {
	db := testDB()
	p := &engine.Project{
		Cols:  []string{"a"},
		Input: &engine.Join{L: &engine.Scan{Table: "R"}, R: &engine.Scan{Table: "S"}},
	}
	v := Classify(p, db)
	if v.Class != Hie {
		t.Errorf("class = %v (%s), want Qhie", v.Class, v.Reason)
	}
}

// π_∅(R ⋈ S ⋈ T): the classic non-hierarchical pattern — b spans {R,S},
// c spans {S,T}: overlapping without containment.
func TestNonHierarchicalChainIsHard(t *testing.T) {
	db := testDB()
	p := &engine.Project{
		Cols: nil,
		Input: &engine.Join{
			L: &engine.Join{L: &engine.Scan{Table: "R"}, R: &engine.Scan{Table: "S"}},
			R: &engine.Scan{Table: "T"},
		},
	}
	v := Classify(p, db)
	if v.Class != Hard {
		t.Errorf("RST chain classified %v (%s), want hard", v.Class, v.Reason)
	}
	if !strings.Contains(v.Reason, "hierarchical") {
		t.Errorf("reason should mention the hierarchical property: %s", v.Reason)
	}
}

// $_b;n←COUNT over σ(R ⋈ U) — Def. 9.1.
func TestGroupAggOverHierarchicalIsQhie(t *testing.T) {
	db := testDB()
	p := &engine.GroupAgg{
		Input:   &engine.Join{L: &engine.Scan{Table: "R"}, R: &engine.Scan{Table: "U"}},
		GroupBy: []string{"b"},
		Aggs:    []engine.AggSpec{{Out: "n", Agg: algebra.Count}},
	}
	v := Classify(p, db)
	if v.Class != Hie {
		t.Errorf("class = %v (%s), want Qhie", v.Class, v.Reason)
	}
}

// Global aggregation over a hierarchical body (the Ré–Suciu HAVING case).
func TestGlobalAggIsQhie(t *testing.T) {
	db := testDB()
	p := &engine.GroupAgg{
		Input: &engine.Scan{Table: "R"},
		Aggs:  []engine.AggSpec{{Out: "m", Agg: algebra.Min, Over: "b"}},
	}
	v := Classify(p, db)
	if v.Class != Hie {
		t.Errorf("class = %v (%s), want Qhie", v.Class, v.Reason)
	}
}

// Aggregation over a non-hierarchical body is hard.
func TestGroupAggOverChainIsHard(t *testing.T) {
	db := testDB()
	p := &engine.GroupAgg{
		Input: &engine.Join{
			L: &engine.Join{L: &engine.Scan{Table: "R"}, R: &engine.Scan{Table: "S"}},
			R: &engine.Scan{Table: "T"},
		},
		GroupBy: nil,
		Aggs:    []engine.AggSpec{{Out: "n", Agg: algebra.Count}},
	}
	v := Classify(p, db)
	if v.Class != Hard {
		t.Errorf("class = %v (%s), want hard", v.Class, v.Reason)
	}
}

// σ over one aggregated sub-query (Def. 8.2a): π_b σ_{n≥1}($_b;n←COUNT(R)).
func TestSelectionOverAggregatedSubquery(t *testing.T) {
	db := testDB()
	p := &engine.Project{
		Cols: []string{"b"},
		Input: &engine.Select{
			Pred: engine.Where(engine.ColTheta("n", value.GE, pvc.IntCell(1))),
			Input: &engine.GroupAgg{
				Input:   &engine.Scan{Table: "R"},
				GroupBy: []string{"b"},
				Aggs:    []engine.AggSpec{{Out: "n", Agg: algebra.Count}},
			},
		},
	}
	v := Classify(p, db)
	if v.Class != Ind {
		t.Errorf("class = %v (%s), want Qind (Def. 8.2a)", v.Class, v.Reason)
	}
}

// Repeated relation symbols disqualify (queries must be non-repeating).
func TestRepeatedRelationIsHard(t *testing.T) {
	db := testDB()
	p := &engine.Project{
		Cols: []string{"a"},
		Input: &engine.Join{
			L: &engine.Scan{Table: "R"},
			R: &engine.Rename{Input: &engine.Rename{Input: &engine.Scan{Table: "R"}, From: "a", To: "a2"}, From: "b", To: "b2"},
		},
	}
	v := Classify(p, db)
	if v.Class != Hard {
		t.Errorf("self-join classified %v (%s), want hard", v.Class, v.Reason)
	}
}

// Selections binding attributes to constants remove them from the
// hierarchical check: σ_{c=0}(R ⋈ S ⋈ T) projected to ∅ becomes
// hierarchical once c is constant-bound.
func TestConstantBindingRestoresHierarchy(t *testing.T) {
	db := testDB()
	p := &engine.Project{
		Cols: nil,
		Input: &engine.Select{
			Pred: engine.Where(engine.ColTheta("c", value.EQ, pvc.IntCell(0))),
			Input: &engine.Join{
				L: &engine.Join{L: &engine.Scan{Table: "R"}, R: &engine.Scan{Table: "S"}},
				R: &engine.Scan{Table: "T"},
			},
		},
	}
	v := Classify(p, db)
	if v.Class == Hard {
		t.Errorf("constant-bound chain still hard: %s", v.Reason)
	}
}

func TestUnionOfTractable(t *testing.T) {
	db := testDB()
	p := &engine.Union{
		L: &engine.Project{Cols: []string{"a"}, Input: &engine.Scan{Table: "R"}},
		R: &engine.Scan{Table: "U"},
	}
	v := Classify(p, db)
	if v.Class == Hard {
		t.Errorf("union of tractable queries is hard: %s", v.Reason)
	}
}

func TestClassStrings(t *testing.T) {
	if Ind.String() != "Qind" || Hie.String() != "Qhie" || Hard.String() != "hard" {
		t.Errorf("Class names wrong")
	}
}
