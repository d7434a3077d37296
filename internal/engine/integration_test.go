package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
	"pvcagg/internal/pvc/pvctest"
	"pvcagg/internal/value"
)

// This file holds step I to the possible-worlds commuting diagram on
// randomised databases and a family of query shapes covering every
// operator: for every valuation ν, evaluating the symbolic result under ν
// gives exactly what the same plan computes on the deterministic
// database ν(D) (pvctest.CheckCommutes). The deterministic side reuses
// the evaluator itself: materialising a world turns every annotation
// into a constant, so the same plan run on the materialised database
// produces the world's deterministic answer.

// eval runs step I the way queries do; every test of this package
// evaluates its plans through it.
func eval(db *pvc.Database, plan Plan) (*pvc.Relation, error) {
	rel, _, err := StreamEvalPlan(context.Background(), db, plan)
	return rel, err
}

// exactResults is step II at its plainest: every tuple's exact outcome,
// computed on one goroutine.
func exactResults(t *testing.T, db *pvc.Database, rel *pvc.Relation) []TupleOutcome {
	t.Helper()
	outs, err := Outcomes(context.Background(), db, rel, ExecConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func checkCommutes(t *testing.T, db *pvc.Database, plan Plan) {
	t.Helper()
	pvctest.CheckCommutes(t, db, func(d *pvc.Database) (*pvc.Relation, error) { return eval(d, plan) })
}

// randomSmallDB builds R(a, b) and S(b, c) with 3–4 independent tuples
// each (≤ 2⁸ worlds). Under N the first tuple of each table carries a
// multiplicity variable over {0, 1, 2} instead of a Boolean one (≤ 2⁶·3²
// worlds), so sums and products of annotations see values other than 0
// and 1.
func randomSmallDB(r *rand.Rand, kind algebra.SemiringKind) *pvc.Database {
	db := pvc.NewDatabase(kind)
	mk := func(name string, cols [2]string, rows int) {
		rel := pvc.NewRelation(name, pvc.Schema{
			{Name: cols[0], Type: pvc.TValue},
			{Name: cols[1], Type: pvc.TValue},
		})
		for i := 0; i < rows; i++ {
			p := 0.2 + 0.6*r.Float64()
			cells := []pvc.Cell{pvc.IntCell(int64(r.Intn(3))), pvc.IntCell(int64(r.Intn(4) * 10))}
			if kind == algebra.Natural && i == 0 {
				x := db.Registry.Fresh(name+"_m", prob.FromPairs([]prob.Pair{
					{V: value.Int(0), P: 1 - p}, {V: value.Int(1), P: p / 2}, {V: value.Int(2), P: p / 2}}))
				rel.MustInsert(expr.V(x), cells...)
			} else if _, err := db.InsertIndependent(rel, p, cells...); err != nil {
				panic(err)
			}
		}
		db.Add(rel)
	}
	mk("R", [2]string{"a", "b"}, 3+r.Intn(2))
	mk("S", [2]string{"b", "c"}, 3+r.Intn(2))
	return db
}

func queryShapes(r *rand.Rand) []Plan {
	aggs := []algebra.Agg{algebra.Min, algebra.Max, algebra.Sum, algebra.Count}
	agg := aggs[r.Intn(len(aggs))]
	th := []value.Theta{value.LE, value.GE, value.EQ}[r.Intn(3)]
	c := pvc.IntCell(int64(r.Intn(4) * 10))
	return []Plan{
		// π over a join.
		&Project{Cols: []string{"a"}, Input: &Join{L: &Scan{Table: "R"}, R: &Scan{Table: "S"}}},
		// Grouped aggregation over a base table.
		&GroupAgg{Input: &Scan{Table: "R"}, GroupBy: []string{"a"}, Aggs: []AggSpec{{Out: "m", Agg: agg, Over: "b"}}},
		// Grouped aggregation over a join, then a HAVING-style selection
		// and projection (the paper's Q2 shape).
		&Project{Cols: []string{"a"}, Input: &Select{
			Pred: Where(ColTheta("m", th, c)),
			Input: &GroupAgg{
				Input:   &Join{L: &Scan{Table: "R"}, R: &Scan{Table: "S"}},
				GroupBy: []string{"a"},
				Aggs:    []AggSpec{{Out: "m", Agg: agg, Over: "c"}},
			},
		}},
		// Global aggregation with a comparison (HAVING without GROUP BY).
		&Project{Cols: nil, Input: &Select{
			Pred: Where(ColTheta("m", th, c)),
			Input: &GroupAgg{
				Input: &Scan{Table: "S"},
				Aggs:  []AggSpec{{Out: "m", Agg: agg, Over: "c"}},
			},
		}},
		// Union of projections.
		&Union{
			L: &Project{Cols: []string{"b"}, Input: &Scan{Table: "R"}},
			R: &Project{Cols: []string{"b"}, Input: &Scan{Table: "S"}},
		},
		// Product with renames, filtered.
		&Project{Cols: []string{"a"}, Input: &Select{
			Pred: Where(ColEqCol("b", "b2")),
			Input: &Product{
				L: &Scan{Table: "R"},
				R: &Rename{Input: &Rename{Input: &Scan{Table: "S"}, From: "b", To: "b2"}, From: "c", To: "c2"},
			},
		}},
	}
}

func TestRandomQueriesCommute(t *testing.T) { commuteTrials(t, 2024, algebra.Boolean, 24) }

// TestRandomQueriesCommuteBag is the same diagram under N, where an
// annotation's value is a multiplicity: π and ∪ must add them, ⋈ and ×
// multiply them, and $ must scale by them.
func TestRandomQueriesCommuteBag(t *testing.T) { commuteTrials(t, 2025, algebra.Natural, 16) }

func commuteTrials(t *testing.T, seed int64, kind algebra.SemiringKind, trials int) {
	if testing.Short() {
		t.Skip("world enumeration is slow in -short mode")
	}
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		db := randomSmallDB(r, kind)
		for i, plan := range queryShapes(r) {
			t.Run(fmt.Sprintf("trial%d/shape%d", trial, i), func(t *testing.T) {
				checkCommutes(t, db, plan)
			})
		}
	}
}

// TestCodedGroupsCommute is the diagram over tables served by dictionary
// lenders (pvctest.DictLendingDatabase), whose batches code their string
// columns with a dictionary that changes order from batch to batch and
// span their integer columns, tightly and loosely by turns: π/∪ and $
// group those rows by their codes, and ⋈ probes by them, in every world
// too, and must give the in-memory answer.
func TestCodedGroupsCommute(t *testing.T) {
	if testing.Short() {
		t.Skip("world enumeration is slow in -short mode")
	}
	r := rand.New(rand.NewSource(46))
	flags, states := []string{"A", "N", "R"}, []string{"F", "O"}
	for trial := 0; trial < 12; trial++ {
		kind := []algebra.SemiringKind{algebra.Boolean, algebra.Natural}[trial%2]
		db := pvc.NewDatabase(kind)
		// U spans one lent batch and T two, so a ∪ of U then T takes T's
		// first batch under the number U's last batch had.
		for _, tab := range []struct {
			name string
			rows int
		}{{"T", 4 + r.Intn(2)}, {"U", 2 + r.Intn(2)}} {
			name, rows := tab.name, tab.rows
			rel := pvc.NewRelation(name, pvc.Schema{
				{Name: "f", Type: pvc.TString}, {Name: "s", Type: pvc.TString}, {Name: "b", Type: pvc.TValue},
			})
			for i := 0; i < rows; i++ {
				cells := []pvc.Cell{pvc.StringCell(flags[r.Intn(3)]), pvc.StringCell(states[r.Intn(2)]), pvc.IntCell(int64(r.Intn(4) * 10))}
				if r.Intn(4) == 0 {
					rel.MustInsert(nil, cells...) // certain: annotated 1
				} else if _, err := db.InsertIndependent(rel, 0.2+0.6*r.Float64(), cells...); err != nil {
					t.Fatal(err)
				}
			}
			db.Add(rel)
		}
		agg := []algebra.Agg{algebra.Min, algebra.Max, algebra.Sum, algebra.Count}[trial%4]
		for i, plan := range []Plan{
			&GroupAgg{Input: &Scan{Table: "T"}, GroupBy: []string{"f"}, Aggs: []AggSpec{{Out: "m", Agg: agg, Over: "b"}}},
			&GroupAgg{Input: &Scan{Table: "T"}, GroupBy: []string{"s", "f"}, Aggs: []AggSpec{{Out: "n", Agg: algebra.Count}, {Out: "m", Agg: agg, Over: "b"}}},
			&GroupAgg{Input: &Scan{Table: "T"}, Aggs: []AggSpec{{Out: "m", Agg: agg, Over: "b"}}},
			&Project{Cols: []string{"f", "s"}, Input: &Scan{Table: "T"}},
			&Union{L: &Project{Cols: []string{"f"}, Input: &Scan{Table: "T"}}, R: &Project{Cols: []string{"f"}, Input: &Scan{Table: "U"}}},
			&Union{L: &Scan{Table: "T"}, R: &Scan{Table: "U"}},
			// π̂ folds into the scans: ∪ keys their coded batches.
			&Union{L: &Prune{Cols: []string{"f", "s"}, Input: &Scan{Table: "U"}}, R: &Prune{Cols: []string{"f", "s"}, Input: &Scan{Table: "T"}}},
			// Integer keys, alone and beside a string.
			&GroupAgg{Input: &Scan{Table: "T"}, GroupBy: []string{"b"}, Aggs: []AggSpec{{Out: "n", Agg: algebra.Count}}},
			&GroupAgg{Input: &Scan{Table: "T"}, GroupBy: []string{"f", "b"}, Aggs: []AggSpec{{Out: "m", Agg: agg, Over: "b"}}},
			&Project{Cols: []string{"b"}, Input: &Scan{Table: "T"}},
			&Join{L: &Scan{Table: "T"}, R: &Prune{Cols: []string{"b"}, Input: &Scan{Table: "U"}}},
		} {
			t.Run(fmt.Sprintf("trial%d/shape%d", trial, i), func(t *testing.T) {
				coded := func(d *pvc.Database) (*pvc.Relation, error) { return eval(pvctest.DictLendingDatabase(d), plan) }
				pvctest.CheckCommutes(t, db, coded)
				want, err := eval(db, plan)
				if err != nil {
					t.Fatal(err)
				}
				got, err := coded(db)
				if err != nil {
					t.Fatal(err)
				}
				relEqual(t, want, got)
			})
		}
	}
}
