package core

import (
	"context"
	"fmt"

	"pvcagg/internal/compile"
	"pvcagg/internal/expr"
)

// TruthProbabilityApprox computes guaranteed bounds on the probability that
// the semiring expression e is non-zero, by anytime partial d-tree
// expansion (compile.Approximate). The pipeline's compilation options
// govern the exact closure of frontier leaves and the ε = 0 fallback; the
// returned interval always contains the exact probability, and
// ApproxReport.Converged reports whether its width reached opts.Eps within
// the budgets.
func (p *Pipeline) TruthProbabilityApprox(e expr.Expr, opts compile.ApproxOptions) (compile.Bounds, compile.ApproxReport, error) {
	return p.TruthProbabilityApproxCtx(context.Background(), e, opts)
}

// TruthProbabilityApproxCtx is TruthProbabilityApprox under a context: the
// frontier loop and every exact leaf closure poll ctx, so cancellation
// aborts the anytime computation promptly with ctx.Err().
func (p *Pipeline) TruthProbabilityApproxCtx(ctx context.Context, e expr.Expr, opts compile.ApproxOptions) (compile.Bounds, compile.ApproxReport, error) {
	if e.Kind() != expr.KindSemiring {
		return compile.Bounds{}, compile.ApproxReport{}, fmt.Errorf("core: TruthProbabilityApprox of a module expression %s", expr.Abbrev(e))
	}
	opts.Compile = p.Options
	b, rep, err := compile.ApproximateCtx(ctx, p.Semiring, p.Registry, e, opts)
	if err != nil {
		return compile.Bounds{}, rep, fmt.Errorf("core: approximate %s: %w", expr.Abbrev(e), err)
	}
	return b, rep, nil
}
