package engine

import (
	"context"

	"pvcagg/internal/pvc"
)

// TupleOutcomeForTest runs the worker's per-tuple computation directly, so the
// external tests can see the per-tuple error of a cancelled compilation
// (Outcomes replaces it by ctx.Err()).
func TupleOutcomeForTest(ctx context.Context, db *pvc.Database, cfg ExecConfig, rel *pvc.Relation, idx int) (TupleOutcome, error) {
	return newWorker(db.Semiring(), db.Registry, &cfg).outcome(ctx, idx, rel.Tuples[idx], rel.Schema.ModuleColumns())
}
