package engine

import (
	"fmt"
	"time"

	"pvcagg/internal/core"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
)

// TupleResult is the probabilistic interpretation of one result tuple:
// its confidence (the probability that the annotation is non-zero) and the
// marginal distribution of every aggregation column.
//
// Deprecated: TupleResult is the exact strategy's legacy result type; new
// code consumes the unified TupleOutcome (whose Confidence is an interval,
// zero-width for exact runs) via Outcomes or Stream.
type TupleResult struct {
	Tuple      pvc.Tuple
	Confidence float64
	// AggDists holds one distribution per TModule column of the result
	// schema, in schema order.
	AggDists []prob.Dist
	Report   core.Report
}

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
