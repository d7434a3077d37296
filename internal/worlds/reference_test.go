package worlds_test

import (
	"context"
	"fmt"
	"math/rand"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// referenceMonteCarloCtx is worlds.MonteCarloCtx as it was before the
// compiled sampler, moved here verbatim: one Registry.Sample valuation
// map, one expr.Eval tree walk and one map update per world. It is the
// definition of "the same estimate, bit for bit" that
// TestSamplerMatchesReference holds the sampler to.
func referenceMonteCarloCtx(ctx context.Context, e expr.Expr, reg *vars.Registry, s algebra.Semiring, n int, rng *rand.Rand) (prob.Dist, error) {
	if err := ctx.Err(); err != nil {
		return prob.Dist{}, err
	}
	if err := reg.CheckDeclared(e); err != nil {
		return prob.Dist{}, err
	}
	if n <= 0 {
		return prob.Dist{}, fmt.Errorf("worlds: MonteCarlo sample count %d must be positive", n)
	}
	vs := expr.Vars(e)
	acc := map[value.V]float64{}
	w := 1 / float64(n)
	for i := 0; i < n; i++ {
		if i&1023 == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				return prob.Dist{}, err
			}
		}
		nu, err := reg.Sample(vs, rng)
		if err != nil {
			return prob.Dist{}, err
		}
		v, err := expr.Eval(e, nu, s)
		if err != nil {
			return prob.Dist{}, err
		}
		acc[v.Key()] += w
	}
	pairs := make([]prob.Pair, 0, len(acc))
	for v, p := range acc {
		pairs = append(pairs, prob.Pair{V: v, P: p})
	}
	return prob.FromPairs(pairs), nil
}
