package engine

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// JointOutcome is one row of a joint distribution: the values the
// expressions take together, in argument order, with their probability.
type JointOutcome struct {
	Values []value.V
	P      float64
}

// Joint computes the exact joint distribution of several expressions over
// one probability space (Section 5, "Compiling Joint Probability
// Distributions"): it Shannon-expands a variable shared by at least two
// of them until they are pairwise independent, and multiplies the
// distributions of independent expressions, each computed on a worker's
// exact path under cfg.Compile and ctx. Outcomes are sorted by value
// tuple; the joint of no expressions is the empty tuple with P = 1. A
// panic is tuple 0's *PanicError.
func Joint(ctx context.Context, s algebra.Semiring, reg *vars.Registry, es []expr.Expr, cfg ExecConfig) (outs []JointOutcome, err error) {
	defer contain(0, &err)
	simplified := make([]expr.Expr, len(es))
	for i, e := range es {
		if err := expr.Validate(e); err != nil {
			return nil, err
		}
		if err := reg.CheckDeclared(e); err != nil {
			return nil, err
		}
		simplified[i] = expr.Simplify(e, s)
	}
	j := &joint{w: newWorker(s, reg, &cfg)}
	defer j.w.release()
	if err := j.expand(ctx, simplified, 1); err != nil {
		return nil, err
	}
	byValues := func(a, b JointOutcome) int { return slices.CompareFunc(a.Values, b.Values, value.V.Cmp) }
	// Stable, so each outcome's probability adds up in expansion order.
	slices.SortStableFunc(j.out, byValues)
	merged := j.out[:0]
	for _, o := range j.out {
		if n := len(merged); n > 0 && byValues(merged[n-1], o) == 0 {
			merged[n-1].P += o.P
		} else {
			merged = append(merged, o)
		}
	}
	return merged, nil
}

// joint is one Joint computation: the worker whose exact path computes
// its independent leaves, the outcomes found so far, and the variable
// tables sharedVar reuses from step to step.
type joint struct {
	w                 *worker
	out               []JointOutcome
	one, first, total expr.VarSet
	shared            []expr.VarID
}

// expand adds the joint of es, weighted by the probability weight of the
// Shannon branch that reached them, to j.out.
func (j *joint) expand(ctx context.Context, es []expr.Expr, weight float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if x, ok := j.sharedVar(es); ok {
		d, err := j.w.reg.DistByID(x)
		if err != nil {
			return err
		}
		for _, pair := range d.Pairs() {
			sub := make([]expr.Expr, len(es))
			for i, e := range es {
				sub[i] = expr.Restrict(e, x, pair.V, j.w.s)
			}
			if err := j.expand(ctx, sub, weight*pair.P); err != nil {
				return err
			}
		}
		return nil
	}
	dists := make([]prob.Dist, len(es))
	for i, e := range es {
		d, _, err := j.w.exact(ctx, e, j.w.cfg.Compile.MaxNodes)
		if err != nil {
			return err
		}
		dists[i] = d
	}
	// Cross product of independent outcome sets.
	var rec func(i int, vals []value.V, pr float64)
	rec = func(i int, vals []value.V, pr float64) {
		if pr == 0 {
			return
		}
		if i == len(dists) {
			j.out = append(j.out, JointOutcome{Values: slices.Clone(vals), P: weight * pr})
			return
		}
		for _, pair := range dists[i].Pairs() {
			rec(i+1, append(vals, pair.V), pr*pair.P)
		}
	}
	rec(0, make([]value.V, 0, len(dists)), 1)
	return nil
}

// sharedVar returns the variable that occurs in at least two of es with
// the most occurrences in all of them, ties to the smallest name.
func (j *joint) sharedVar(es []expr.Expr) (best expr.VarID, found bool) {
	j.first.Reset()
	j.total.Reset()
	j.shared = j.shared[:0]
	for i, e := range es {
		j.one.Reset()
		expr.CollectVarsInto(e, &j.one)
		for _, x := range j.one.Touched() {
			if _, stored := j.first.GetOrSet(x, int32(i+1)); !stored {
				j.shared = append(j.shared, x)
			}
		}
		expr.CollectVarsInto(e, &j.total)
	}
	for _, x := range j.shared {
		n, m := j.total.Count(x), j.total.Count(best)
		if !found || n > m || n == m && expr.VarName(x) < expr.VarName(best) {
			best, found = x, true
		}
	}
	return best, found
}

// Ratio is an exact rational average outcome Num/Den (Den > 0), in lowest
// terms.
type Ratio struct {
	Num, Den int64
}

// Float returns the ratio as a float64.
func (r Ratio) Float() float64 { return float64(r.Num) / float64(r.Den) }

func (r Ratio) String() string { return fmt.Sprintf("%d/%d", r.Num, r.Den) }

// AvgOutcome is one outcome of an average distribution.
type AvgOutcome struct {
	Avg Ratio
	P   float64
}

// AvgDist is the exact distribution of an average: its defined outcomes
// and the probability that the group is empty (COUNT = 0), where the
// average is undefined.
type AvgDist struct {
	Outcomes []AvgOutcome
	PEmpty   float64
}

// Expectation returns the conditional expectation E[avg | group non-empty].
func (d AvgDist) Expectation() float64 {
	mass, acc := 0.0, 0.0
	for _, o := range d.Outcomes {
		mass += o.P
		acc += o.Avg.Float() * o.P
	}
	if mass == 0 {
		return 0
	}
	return acc / mass
}

// Average computes the exact distribution of sum/count for a SUM
// expression and a COUNT expression over the same group from their joint
// distribution: AVG "composed from simpler ones" (Section 2.2). The count
// expression must take non-negative integer values.
func Average(ctx context.Context, s algebra.Semiring, reg *vars.Registry, sum, count expr.Expr, cfg ExecConfig) (AvgDist, error) {
	if sum.Kind() != expr.KindModule || count.Kind() != expr.KindModule {
		return AvgDist{}, errors.New("engine: Average expects two semimodule expressions")
	}
	outs, err := Joint(ctx, s, reg, []expr.Expr{sum, count}, cfg)
	if err != nil {
		return AvgDist{}, err
	}
	acc := map[Ratio]float64{}
	var out AvgDist
	for _, o := range outs {
		sv, cv := o.Values[0], o.Values[1]
		if !cv.IsInt() || cv.Int64() < 0 {
			return AvgDist{}, fmt.Errorf("engine: COUNT outcome %v is not a non-negative integer", cv)
		}
		if cv.IsZero() {
			out.PEmpty += o.P
			continue
		}
		if !sv.IsInt() {
			return AvgDist{}, fmt.Errorf("engine: infinite SUM outcome %v", sv)
		}
		q := big.NewRat(sv.Int64(), cv.Int64())
		acc[Ratio{q.Num().Int64(), q.Denom().Int64()}] += o.P
	}
	for r, pr := range acc {
		out.Outcomes = append(out.Outcomes, AvgOutcome{Avg: r, P: pr})
	}
	// Exactly: the cross products Num·Den of two int64 ratios overflow.
	slices.SortFunc(out.Outcomes, func(a, b AvgOutcome) int {
		return big.NewRat(a.Avg.Num, a.Avg.Den).Cmp(big.NewRat(b.Avg.Num, b.Avg.Den))
	})
	return out, nil
}
