package engine

import (
	"pvcagg/internal/compile"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
)

// ApproxTupleResult is the anytime interpretation of one result tuple:
// guaranteed confidence bounds plus the exact marginal distribution of
// every aggregation column.
//
// Deprecated: ApproxTupleResult is the anytime strategy's legacy result
// type; new code consumes the unified TupleOutcome via Outcomes or
// Stream.
type ApproxTupleResult struct {
	Tuple      pvc.Tuple
	Confidence compile.Bounds
	// AggDists holds one exact distribution per TModule column of the
	// result schema, in schema order.
	AggDists []prob.Dist
	Report   compile.ApproxReport
}
