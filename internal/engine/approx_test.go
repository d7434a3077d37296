// Differential and convergence tests for the anytime approximate
// probability engine at the pvc-table level: Outcomes with
// ExecConfig.Approx set vs. the exact strategy over randomly generated
// databases and plans, and the convergence guarantee on every tractable
// (Qhie) instance. The tests run with per-tuple parallelism, so `go test
// -race` exercises the concurrent anytime path.
package engine_test

import (
	"context"
	"fmt"
	"testing"

	"pvcagg/internal/compile"
	"pvcagg/internal/engine"
	"pvcagg/internal/gen"
	"pvcagg/internal/pvc"
	"pvcagg/internal/tractable"
)

// approxAt brackets every tuple's confidence on par workers.
func approxAt(db *pvc.Database, rel *pvc.Relation, opts compile.ApproxOptions, par int) ([]engine.TupleOutcome, error) {
	return engine.Outcomes(context.Background(), db, rel,
		engine.ExecConfig{Parallelism: par, Approx: &opts})
}

// TestProbabilitiesApproxDifferential evaluates randomly generated plans
// and requires, per result tuple, that the anytime confidence bounds
// bracket the exact confidence, honour the requested width, and that the
// aggregation columns stay exact.
func TestProbabilitiesApproxDifferential(t *testing.T) {
	const eps = 0.05
	for seed := int64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			inst := gen.MustNewDB(gen.DBParams{Seed: seed})
			rel := evalPlan(t, inst.DB, inst.Plan)
			exact, err := exactAt(inst.DB, rel, 1)
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			approx, err := approxAt(inst.DB, rel, compile.ApproxOptions{Eps: eps, MaxLeafNodes: 32}, 4)
			if err != nil {
				t.Fatalf("approx: %v", err)
			}
			if len(approx) != len(exact) {
				t.Fatalf("%d approx results, want %d", len(approx), len(exact))
			}
			for i := range exact {
				a := approx[i]
				if !a.Confidence.Contains(exact[i].Confidence.Lo, 1e-9) {
					t.Errorf("tuple %d: exact confidence %v outside bounds %v",
						i, exact[i].Confidence, a.Confidence)
				}
				if a.Report.Approx.Converged && a.Confidence.Width() > eps+1e-12 {
					t.Errorf("tuple %d: converged but width %v > eps", i, a.Confidence.Width())
				}
				if len(a.AggDists) != len(exact[i].AggDists) {
					t.Fatalf("tuple %d: aggregate column counts differ", i)
				}
				for j := range exact[i].AggDists {
					if !a.AggDists[j].Equal(exact[i].AggDists[j], 1e-12) {
						t.Errorf("tuple %d agg %d: %v != exact %v",
							i, j, a.AggDists[j], exact[i].AggDists[j])
					}
				}
			}
		})
	}
}

// TestRunApproxQhieConvergence requires that on every generated instance
// whose plan is in the tractable class Qhie, the anytime engine reaches
// width ≤ ε for every result tuple within the node budget.
func TestRunApproxQhieConvergence(t *testing.T) {
	const eps = 0.01
	hie := 0
	for seed := int64(1); seed <= 80; seed++ {
		inst := gen.MustNewDB(gen.DBParams{Seed: seed})
		if tractable.Classify(inst.Plan, inst.DB).Class != tractable.Hie {
			continue
		}
		hie++
		results, err := approxAt(inst.DB, evalPlan(t, inst.DB, inst.Plan),
			compile.ApproxOptions{Eps: eps, MaxNodes: 100_000}, 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, r := range results {
			if !r.Report.Approx.Converged {
				t.Errorf("seed %d tuple %d: not converged within node budget (width %v)",
					seed, i, r.Confidence.Width())
			}
			if r.Confidence.Width() > eps+1e-12 {
				t.Errorf("seed %d tuple %d: width %v > eps %v", seed, i, r.Confidence.Width(), eps)
			}
		}
	}
	if hie < 10 {
		t.Errorf("only %d Qhie instances in the grid; harness too weak", hie)
	}
}

// TestProbabilitiesApproxEmpty checks the empty-relation edge case.
func TestProbabilitiesApproxEmpty(t *testing.T) {
	inst := gen.MustNewDB(gen.DBParams{Seed: 1})
	rel := evalPlan(t, inst.DB, inst.Plan)
	rel.Tuples = nil
	got, err := approxAt(inst.DB, rel, compile.ApproxOptions{Eps: 0.1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected no results, got %d", len(got))
	}
}
