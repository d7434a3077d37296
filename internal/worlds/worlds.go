// Package worlds provides ground-truth baselines for probability
// computation: exhaustive enumeration of the possible worlds Ω (Eq. (3) of
// the paper, exponential in the number of variables) and Monte-Carlo
// estimation (the sampling approach of MCDB [10] that the paper contrasts
// with exact computation). Both are used to validate the d-tree pipeline
// and as comparison baselines in benchmarks.
package worlds

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// MaxEnumWorlds bounds exhaustive enumeration; Enumerate returns an error
// beyond it rather than running forever.
const MaxEnumWorlds = 1 << 24

// Enumerate computes the exact probability distribution of e (Eq. (3)) by
// iterating over every possible world: PΦ[s] = Σ_{ν: ν(Φ)=s} Pr(ν).
func Enumerate(e expr.Expr, reg *vars.Registry, s algebra.Semiring) (prob.Dist, error) {
	if err := reg.CheckDeclared(e); err != nil {
		return prob.Dist{}, err
	}
	vs := expr.Vars(e)
	if n := reg.WorldCount(vs); n > MaxEnumWorlds {
		return prob.Dist{}, fmt.Errorf("worlds: %d possible worlds exceed enumeration bound %d", n, MaxEnumWorlds)
	}
	acc := map[value.V]float64{}
	var evalErr error
	err := reg.Enumerate(vs, func(nu expr.Valuation, p float64) {
		if evalErr != nil || p == 0 {
			return
		}
		v, err := expr.Eval(e, nu, s)
		if err != nil {
			evalErr = err
			return
		}
		acc[v.Key()] += p
	})
	if err != nil {
		return prob.Dist{}, err
	}
	if evalErr != nil {
		return prob.Dist{}, evalErr
	}
	pairs := make([]prob.Pair, 0, len(acc))
	for v, p := range acc {
		pairs = append(pairs, prob.Pair{V: v, P: p})
	}
	return prob.FromPairs(pairs), nil
}

// Hoeffding95 brackets an estimated truth probability p from n samples
// with the two-sided 95% Hoeffding interval, clamped to [0, 1]: the
// half-width is sqrt(ln(2/0.05)/(2n)). The interval is statistical — it
// contains the exact probability with probability >= 95% over the sample
// draw, not always.
func Hoeffding95(p float64, n int) (lo, hi float64) {
	half := math.Sqrt(math.Log(2/0.05)/2) / math.Sqrt(float64(n))
	return math.Max(0, p-half), math.Min(1, p+half)
}

// EnumerateJoint computes the exact joint distribution of several
// expressions over the same probability space. The joint outcome of world
// ν is the tuple (ν(e1), …, ν(ek)); results are keyed by the rendered
// tuple. Used to validate the joint-compilation machinery of Section 5.
func EnumerateJoint(es []expr.Expr, reg *vars.Registry, s algebra.Semiring) (map[string]float64, error) {
	varSet := map[string]struct{}{}
	for _, e := range es {
		if err := reg.CheckDeclared(e); err != nil {
			return nil, err
		}
		for _, x := range expr.Vars(e) {
			varSet[x] = struct{}{}
		}
	}
	vs := make([]string, 0, len(varSet))
	for x := range varSet {
		vs = append(vs, x)
	}
	if n := reg.WorldCount(vs); n > MaxEnumWorlds {
		return nil, fmt.Errorf("worlds: %d possible worlds exceed enumeration bound %d", n, MaxEnumWorlds)
	}
	acc := map[string]float64{}
	var evalErr error
	err := reg.Enumerate(vs, func(nu expr.Valuation, p float64) {
		if evalErr != nil || p == 0 {
			return
		}
		key := ""
		for i, e := range es {
			v, err := expr.Eval(e, nu, s)
			if err != nil {
				evalErr = err
				return
			}
			if i > 0 {
				key += ","
			}
			key += v.String()
		}
		acc[key] += p
	})
	if err != nil {
		return nil, err
	}
	if evalErr != nil {
		return nil, evalErr
	}
	return acc, nil
}

// MonteCarloCtx estimates the distribution of e from n sampled worlds
// drawn from rng. The sampling loop polls ctx every 1024 worlds (polling
// consumes no randomness, so the estimate is a function of rng alone)
// and aborts with ctx.Err() once it is cancelled. A caller that samples
// many expressions keeps a Sampler and calls its Sample, which reuses the
// scratch this allocates per call.
func MonteCarloCtx(ctx context.Context, e expr.Expr, reg *vars.Registry, s algebra.Semiring, n int, rng *rand.Rand) (prob.Dist, error) {
	var sm Sampler
	return sm.Sample(ctx, e, reg, s, n, rng)
}
