package core

import (
	"context"
	"fmt"
	"time"

	"pvcagg/internal/compile"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
)

// DistributionParallel is Distribution with the compilation fanned out
// to at most parallelism goroutines (compile.ParallelCompiler);
// parallelism <= 0 selects runtime.GOMAXPROCS(0). Evaluation stays
// single-threaded — it is memoised over the shared DAG and is a small
// fraction of the cost on hard instances. The decomposition rules and
// their order are identical to the sequential path, so the returned
// distribution is bit-identical to Distribution's.
func (p *Pipeline) DistributionParallel(e expr.Expr, parallelism int) (prob.Dist, Report, error) {
	return p.DistributionParallelCtx(context.Background(), e, parallelism)
}

// DistributionParallelCtx is DistributionParallel under a context: every
// compilation worker polls ctx at expansion steps, so cancellation aborts
// the whole fan-out promptly with ctx.Err().
func (p *Pipeline) DistributionParallelCtx(ctx context.Context, e expr.Expr, parallelism int) (prob.Dist, Report, error) {
	var rep Report
	c := compile.NewParallel(p.Semiring, p.Registry, p.Options, parallelism)
	t0 := time.Now()
	res, err := c.CompileCtx(ctx, e)
	if err != nil {
		return prob.Dist{}, rep, fmt.Errorf("core: compile %s: %w", expr.Abbrev(e), err)
	}
	rep.CompileTime = time.Since(t0)
	rep.Compile = res.Stats
	rep.Tree = dtree.Measure(res.Root)
	t1 := time.Now()
	d, evalStats, err := dtree.EvaluateShared(res.Root, dtree.Env{Semiring: p.Semiring, Registry: p.Registry}, p.Options.Shared.EvalCache())
	if err != nil {
		return prob.Dist{}, rep, fmt.Errorf("core: evaluate %s: %w", expr.Abbrev(e), err)
	}
	rep.EvalTime = time.Since(t1)
	rep.Eval = evalStats
	return d, rep, nil
}

// TruthProbabilityParallel is TruthProbability backed by
// DistributionParallel.
func (p *Pipeline) TruthProbabilityParallel(e expr.Expr, parallelism int) (float64, Report, error) {
	return p.TruthProbabilityParallelCtx(context.Background(), e, parallelism)
}

// TruthProbabilityParallelCtx is TruthProbabilityParallel under a context.
func (p *Pipeline) TruthProbabilityParallelCtx(ctx context.Context, e expr.Expr, parallelism int) (float64, Report, error) {
	if e.Kind() != expr.KindSemiring {
		return 0, Report{}, fmt.Errorf("core: TruthProbability of a module expression %s", expr.Abbrev(e))
	}
	d, rep, err := p.DistributionParallelCtx(ctx, e, parallelism)
	if err != nil {
		return 0, rep, err
	}
	return d.TruthProbability(), rep, nil
}
