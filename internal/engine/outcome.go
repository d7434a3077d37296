package engine

import (
	"pvcagg/internal/compile"
	"pvcagg/internal/core"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
)

// TupleOutcome is the unified probabilistic interpretation of one result
// tuple, shared by every execution strategy: its confidence as an interval
// (exact strategies yield zero-width intervals, the anytime engine yields
// guaranteed bounds, sampling yields a confidence interval), the marginal
// distribution of every aggregation column (always computed exactly — the
// hardness of selections on aggregates lives in the annotations), and the
// per-tuple cost report.
type TupleOutcome struct {
	// Index is the ordinal of the tuple in the (sorted) result pvc-table;
	// streaming consumers receive outcomes in completion order and use it
	// to re-associate them.
	Index int
	Tuple pvc.Tuple
	// Confidence brackets the probability that the tuple's annotation is
	// non-zero. Exact strategies return Lo == Hi.
	Confidence compile.Bounds
	// AggDists holds one exact distribution per TModule column of the
	// result schema, in schema order.
	AggDists []prob.Dist
	Report   TupleReport
}

// TupleReport is the per-tuple cost report across strategies. Exactly the
// fields of the strategy that ran are populated.
type TupleReport struct {
	// Exact aggregates every exact compilation done for this tuple: the
	// annotation under the exact strategy, plus all aggregation columns
	// under every strategy.
	Exact core.Report
	// Approx is the anytime report of the annotation (anytime strategy
	// only).
	Approx *compile.ApproxReport
	// Samples is the Monte Carlo sample count (sampling strategy only).
	Samples int
}

// addAggregate folds one aggregation column's exact report into the
// per-tuple totals (node counts and times add, the largest intermediate
// distribution wins).
func (r *TupleReport) addAggregate(rep core.Report) {
	r.Exact.Compile.Nodes += rep.Compile.Nodes
	r.Exact.Eval.NodeEvals += rep.Eval.NodeEvals
	if rep.Eval.MaxDistSize > r.Exact.Eval.MaxDistSize {
		r.Exact.Eval.MaxDistSize = rep.Eval.MaxDistSize
	}
	r.Exact.CompileTime += rep.CompileTime
	r.Exact.EvalTime += rep.EvalTime
}

// tupleSeedStride decorrelates per-tuple sampling streams: tuple i draws
// from seed + i·stride, so outcomes are reproducible from the run's single
// explicit seed and independent of scheduling order and parallelism. The
// stride is the odd 64-bit golden-ratio constant (splitmix64's increment).
const tupleSeedStride = 0x9E3779B97F4A7C15
