package engine_test

// External-package checks of step I over generated instances (gen
// imports engine, so they cannot live in package engine):
// tuple-independent databases with join/union/σ shapes under $ must
// commute with possible-worlds evaluation, and must evaluate identically
// over tables that lend and poison their rows.

import (
	"context"
	"testing"

	"pvcagg/internal/engine"
	"pvcagg/internal/gen"
	"pvcagg/internal/pvc"
	"pvcagg/internal/pvc/pvctest"
)

func TestStreamEvalPlanMatchesEvalGenerated(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 40; seed++ {
		// Three tables of four tuples: 2¹² worlds, the oracle's bound.
		p := gen.DBParams{Tuples: 4, Domain: 3, MaxV: 25, VarProb: 0.6, Seed: seed}
		inst := gen.MustNewDB(p)
		eval := func(db *pvc.Database) (*pvc.Relation, error) {
			rel, _, err := engine.StreamEvalPlan(ctx, db, inst.Plan)
			return rel, err
		}
		pvctest.CheckCommutes(t, inst.DB, eval)
		// The same seed's larger instance over tables that lend and poison
		// their rows (see TestPoisonedLenderDifferential): the rendering
		// of a relation spells out every cell and annotation.
		p.Tuples = 6
		inst = gen.MustNewDB(p)
		want, err := eval(inst.DB)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := eval(pvctest.LendingDatabase(inst.DB))
		if err != nil {
			t.Fatalf("seed %d over lenders: %v", seed, err)
		}
		if !got.Schema.Equal(want.Schema) || got.String() != want.String() {
			t.Fatalf("seed %d: over lenders:\n%s\nin memory:\n%s", seed, got, want)
		}
	}
}
