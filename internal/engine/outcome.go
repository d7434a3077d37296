package engine

import (
	"time"

	"pvcagg/internal/compile"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
)

// RunTiming separates the costs of the two evaluation steps.
type RunTiming struct {
	Construct   time.Duration // step I: computing tuples and expressions (⟦·⟧)
	Probability time.Duration // step II: probability computation (P(·))
}

// TupleOutcome is the unified probabilistic interpretation of one result
// tuple, shared by every execution strategy: its confidence as an interval
// (exact strategies yield zero-width intervals, the anytime engine yields
// guaranteed bounds, sampling yields a confidence interval), the marginal
// distribution of every aggregation column (always computed exactly — the
// hardness of selections on aggregates lives in the annotations), and the
// per-tuple cost report.
type TupleOutcome struct {
	// Index is the ordinal of the tuple in the (sorted) result pvc-table.
	// It differs from the outcome's position in a slice that omits tuples
	// which did not finish.
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
	// annotation when it compiled exactly, plus all aggregation columns
	// under every strategy.
	Exact ExactReport
	// Approx is the anytime report of the annotation (anytime strategy,
	// and Auto over its node bound).
	Approx *compile.ApproxReport
	// Samples is the Monte Carlo sample count (sampling strategy only).
	Samples int
}

// add folds one more exact computation into r: counters add, the largest
// intermediate distribution wins.
func (r *ExactReport) add(o ExactReport) {
	c := &r.Compile
	c.SumSplits += o.Compile.SumSplits
	c.ProductSplits += o.Compile.ProductSplits
	c.TensorSplits += o.Compile.TensorSplits
	c.CmpSplits += o.Compile.CmpSplits
	c.Factorings += o.Compile.Factorings
	c.Shannon += o.Compile.Shannon
	c.PrunedTerms += o.Compile.PrunedTerms
	c.PrunedGuards += o.Compile.PrunedGuards
	c.CacheHits += o.Compile.CacheHits
	c.Nodes += o.Compile.Nodes
	r.Eval.NodeEvals += o.Eval.NodeEvals
	r.Eval.MaxDistSize = max(r.Eval.MaxDistSize, o.Eval.MaxDistSize)
}

// SumReports adds up step II's counters over outcomes: their exact
// reports by add, their anytime expansions and their sampled worlds.
func SumReports(outs []TupleOutcome) (exact ExactReport, expansions, samples int) {
	for _, o := range outs {
		exact.add(o.Report.Exact)
		if o.Report.Approx != nil {
			expansions += o.Report.Approx.Expansions
		}
		samples += o.Report.Samples
	}
	return exact, expansions, samples
}

// tupleSeedStride decorrelates per-tuple sampling streams: tuple i draws
// from seed + i·stride, so outcomes are reproducible from the run's single
// explicit seed and independent of scheduling order and parallelism. The
// stride is the odd 64-bit golden-ratio constant (splitmix64's increment).
const tupleSeedStride = 0x9E3779B97F4A7C15
