package engine_test

// External-package differential (gen imports engine, so this cannot live
// in package engine): generated tuple-independent databases with
// join/union/σ shapes under $ must evaluate bit-for-bit identically
// through the materializing and streaming execution paths.

import (
	"context"
	"testing"

	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/gen"
	"pvcagg/internal/pvc"
	"pvcagg/internal/pvc/pvctest"
)

func TestStreamEvalPlanMatchesEvalGenerated(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 40; seed++ {
		inst := gen.MustNewDB(gen.DBParams{Tuples: 6, Domain: 3, MaxV: 25, VarProb: 0.6, Seed: seed})
		want, _, errM := engine.EvalPlan(ctx, inst.DB, inst.Plan)
		got, _, errS := engine.StreamEvalPlan(ctx, inst.DB, inst.Plan)
		sameRelation(t, seed, "streaming", want, errM, got, errS)
		// The same plan over tables that lend and poison their rows
		// (see TestPoisonedLenderDifferential), on both paths.
		lent := pvctest.LendingDatabase(inst.DB)
		got, _, errS = engine.StreamEvalPlan(ctx, lent, inst.Plan)
		sameRelation(t, seed, "streaming over lenders", want, errM, got, errS)
		got, _, errS = engine.EvalPlan(ctx, lent, inst.Plan)
		sameRelation(t, seed, "materializing over lenders", want, errM, got, errS)
	}
}

func sameRelation(t *testing.T, seed int64, what string, want *pvc.Relation, errW error, got *pvc.Relation, errG error) {
	t.Helper()
	if (errW == nil) != (errG == nil) {
		t.Fatalf("seed %d: materializing err %v, %s err %v", seed, errW, what, errG)
	}
	if errW != nil {
		return
	}
	if got.Name != want.Name || !got.Schema.Equal(want.Schema) {
		t.Fatalf("seed %d %s: name/schema mismatch: got %s %v, want %s %v",
			seed, what, got.Name, got.Schema.Names(), want.Name, want.Schema.Names())
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("seed %d %s: rows: got %d, want %d", seed, what, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		wt, gt := want.Tuples[i], got.Tuples[i]
		for j := range wt.Cells {
			if !gt.Cells[j].Equal(wt.Cells[j]) {
				t.Fatalf("seed %d %s row %d cell %d: got %s, want %s", seed, what, i, j, gt.Cells[j], wt.Cells[j])
			}
		}
		if !expr.Equal(gt.Ann, wt.Ann) {
			t.Fatalf("seed %d %s row %d annotation: got %s, want %s", seed, what, i, gt.Ann, wt.Ann)
		}
	}
}
