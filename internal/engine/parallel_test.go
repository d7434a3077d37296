// Differential and determinism tests for the worker pool of the
// probability step: Outcomes at parallelism 4 vs. at parallelism 1 vs.
// brute-force possible-worlds enumeration (worlds.RelationTruth), over
// randomly generated pvc-databases and plans. The external test package
// lets the harness use gen (which imports engine).
package engine_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/gen"
	"pvcagg/internal/pvc"
	"pvcagg/internal/worlds"
)

// evalPlan runs step I of a generated instance the way queries do.
func evalPlan(t testing.TB, db *pvc.Database, plan engine.Plan) *pvc.Relation {
	t.Helper()
	rel, _, err := engine.StreamEvalPlan(context.Background(), db, plan)
	if err != nil {
		t.Fatalf("plan %s: %v", plan, err)
	}
	return rel
}

// exactAt computes every tuple's exact outcome on par workers.
func exactAt(db *pvc.Database, rel *pvc.Relation, par int) ([]engine.TupleOutcome, error) {
	return engine.Outcomes(context.Background(), db, rel, engine.ExecConfig{Parallelism: par})
}

// TestProbabilitiesParallelDifferential evaluates 120 randomly generated
// plans over randomly generated pvc-databases and requires, per result
// tuple, that parallel confidence and aggregate distributions match both
// the sequential path and brute-force enumeration.
func TestProbabilitiesParallelDifferential(t *testing.T) {
	instances := 0
	nonEmpty := 0
	for seed := int64(1); seed <= 120; seed++ {
		seed := seed
		instances++
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			inst := gen.MustNewDB(gen.DBParams{Seed: seed})
			rel := evalPlan(t, inst.DB, inst.Plan)
			seq, err := exactAt(inst.DB, rel, 1)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			par, err := exactAt(inst.DB, rel, 4)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			truth, err := worlds.RelationTruth(inst.DB, rel)
			if err != nil {
				t.Fatalf("enumeration: %v", err)
			}
			if len(par) != len(seq) || len(truth) != len(seq) {
				t.Fatalf("result counts differ: seq %d, par %d, worlds %d", len(seq), len(par), len(truth))
			}
			for i := range seq {
				if par[i].Confidence != seq[i].Confidence {
					t.Errorf("tuple %d: parallel confidence %v != sequential %v", i, par[i].Confidence, seq[i].Confidence)
				}
				if !par[i].Confidence.Contains(truth[i].Confidence, 1e-9) || par[i].Confidence.Width() != 0 {
					t.Errorf("tuple %d: parallel confidence %v != possible worlds %v", i, par[i].Confidence, truth[i].Confidence)
				}
				if len(par[i].AggDists) != len(seq[i].AggDists) || len(truth[i].AggDists) != len(seq[i].AggDists) {
					t.Fatalf("tuple %d: aggregate column counts differ", i)
				}
				for j := range seq[i].AggDists {
					if !par[i].AggDists[j].Equal(seq[i].AggDists[j], 1e-12) {
						t.Errorf("tuple %d agg %d: parallel %v != sequential %v", i, j, par[i].AggDists[j], seq[i].AggDists[j])
					}
					if !par[i].AggDists[j].Equal(truth[i].AggDists[j], 1e-9) {
						t.Errorf("tuple %d agg %d: parallel %v != possible worlds %v", i, j, par[i].AggDists[j], truth[i].AggDists[j])
					}
				}
			}
		})
	}
	// The grid must really exercise the engine: this fails loudly if a
	// generator change ever makes every plan return the empty relation.
	t.Cleanup(func() {
		for seed := int64(1); seed <= 120; seed++ {
			inst := gen.MustNewDB(gen.DBParams{Seed: seed})
			if rel, _, err := engine.StreamEvalPlan(context.Background(), inst.DB, inst.Plan); err == nil && rel.Len() > 0 {
				nonEmpty++
			}
		}
		if instances < 100 || nonEmpty < instances/2 {
			t.Errorf("harness too weak: %d instances, %d non-empty results", instances, nonEmpty)
		}
	})
}

// TestProbabilitiesParallelDeterminism requires identical probabilities
// across repeated runs and across parallelism 1, 2 and GOMAXPROCS.
func TestProbabilitiesParallelDeterminism(t *testing.T) {
	inst := gen.MustNewDB(gen.DBParams{Tuples: 6, Seed: 9})
	rel := evalPlan(t, inst.DB, inst.Plan)
	ref, err := exactAt(inst.DB, rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		for rep := 0; rep < 3; rep++ {
			got, err := exactAt(inst.DB, rel, par)
			if err != nil {
				t.Fatalf("parallelism %d rep %d: %v", par, rep, err)
			}
			sameExact(t, fmt.Sprintf("parallelism %d rep %d", par, rep), ref, got)
		}
	}
}

// sameExact fails unless two exact runs agree tuple for tuple.
func sameExact(t *testing.T, what string, ref, got []engine.TupleOutcome) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(ref))
	}
	for i := range ref {
		if got[i].Tuple.Key() != ref[i].Tuple.Key() || got[i].Confidence != ref[i].Confidence {
			t.Fatalf("%s tuple %d: %s %v != %s %v", what, i,
				got[i].Tuple.Label(), got[i].Confidence, ref[i].Tuple.Label(), ref[i].Confidence)
		}
		for j := range ref[i].AggDists {
			if !got[i].AggDists[j].Equal(ref[i].AggDists[j], 1e-12) {
				t.Fatalf("%s tuple %d agg %d: %v != %v", what, i, j, got[i].AggDists[j], ref[i].AggDists[j])
			}
		}
	}
}

// TestProbabilitiesParallelErrorAggregation checks that every failing
// tuple is reported, not just the first one.
func TestProbabilitiesParallelErrorAggregation(t *testing.T) {
	db := pvc.NewDatabase(algebra.Boolean)
	db.Registry.DeclareBool("x", 0.5)
	rel := pvc.NewRelation("bad", pvc.Schema{{Name: "a", Type: pvc.TValue}})
	rel.MustInsert(expr.V("x"), pvc.IntCell(1))
	rel.Tuples = append(rel.Tuples,
		pvc.Tuple{Cells: []pvc.Cell{pvc.IntCell(2)}, Ann: expr.V("ghost1")},
		pvc.Tuple{Cells: []pvc.Cell{pvc.IntCell(3)}, Ann: expr.V("ghost2")},
	)
	// Aggregation must hold at every parallelism, including 1.
	for _, par := range []int{1, 4} {
		_, err := exactAt(db, rel, par)
		if err == nil {
			t.Fatalf("parallelism %d: expected error for undeclared variables", par)
		}
		msg := err.Error()
		for _, want := range []string{"2 of 3 tuples failed", "ghost1", "ghost2"} {
			if !strings.Contains(msg, want) {
				t.Errorf("parallelism %d: error %q does not mention %q", par, msg, want)
			}
		}
	}
}

// TestProbabilitiesParallelEmpty checks the empty-relation edge case.
func TestProbabilitiesParallelEmpty(t *testing.T) {
	db := pvc.NewDatabase(algebra.Boolean)
	rel := pvc.NewRelation("empty", pvc.Schema{{Name: "a", Type: pvc.TValue}})
	got, err := exactAt(db, rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected no results, got %d", len(got))
	}
}

// TestRunParallelMatchesRun checks both steps chained, sequential against
// parallel, on one generated instance.
func TestRunParallelMatchesRun(t *testing.T) {
	inst := gen.MustNewDB(gen.DBParams{Tuples: 5, Seed: 21})
	seq, err := exactAt(inst.DB, evalPlan(t, inst.DB, inst.Plan), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := exactAt(inst.DB, evalPlan(t, inst.DB, inst.Plan), 3)
	if err != nil {
		t.Fatal(err)
	}
	sameExact(t, "parallelism 3", seq, par)
}
