package engine

import (
	"fmt"
	"time"

	"pvcagg/internal/core"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
)

// RunTiming separates the costs of the two evaluation steps.
type RunTiming struct {
	Construct   time.Duration // step I: computing tuples and expressions (⟦·⟧)
	Probability time.Duration // step II: probability computation (P(·))
}

// JointResult computes the joint distribution of a tuple's annotation and
// its aggregation columns (Section 5, "Compiling Joint Probability
// Distributions") — the exact semantics of "the aggregate takes value v
// and the tuple is present".
func JointResult(db *pvc.Database, rel *pvc.Relation, row int) ([]core.JointOutcome, error) {
	if row < 0 || row >= len(rel.Tuples) {
		return nil, fmt.Errorf("engine: row %d out of range", row)
	}
	t := rel.Tuples[row]
	es := []expr.Expr{t.Ann}
	for _, ci := range rel.Schema.ModuleColumns() {
		e, err := t.Cells[ci].ModuleExpr()
		if err != nil {
			return nil, err
		}
		es = append(es, e)
	}
	p := core.New(db.Kind, db.Registry)
	return p.Joint(es)
}
