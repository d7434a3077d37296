// Package core wires the paper's pipeline together: it takes a semiring or
// semimodule expression over a registry of random variables, compiles it
// into a decomposition tree (Algorithm 1) and computes its exact
// probability distribution bottom-up (Theorem 2). It also implements the
// joint-distribution compilation sketched at the end of Section 5.
//
// Step II of a query does not start here: the engine's worker dispatch
// (behind Exec, ExecTable and ExecExpr) picks the exact, anytime or
// sampling strategy and uses a Pipeline for its exact compilations. What
// else Pipeline is for is the compile ablations, which set its Options
// directly, and the Section 5 joint (Joint, Average).
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/vars"
)

// Pipeline computes distributions of expressions over a fixed probability
// space. It is not safe for concurrent use, and its fields must not change
// once it is in use.
type Pipeline struct {
	Semiring algebra.Semiring
	Registry *vars.Registry
	Options  compile.Options
	// c compiles every expression of the pipeline — an engine worker's
	// annotations and columns, tuple after tuple — with its memo reset
	// after each, so no two compilations share a node. Made on first use.
	c *compile.Compiler
}

// New returns a pipeline over the given semiring kind and registry with
// default compilation options.
func New(kind algebra.SemiringKind, reg *vars.Registry) *Pipeline {
	return &Pipeline{Semiring: algebra.SemiringFor(kind), Registry: reg}
}

// Report describes one end-to-end computation: compilation statistics, the
// d-tree shape, evaluation statistics and wall-clock timings. These are the
// quantities the paper's experiments report (run time, d-tree size,
// distribution sizes).
type Report struct {
	Compile     compile.Stats
	Tree        dtree.Stats
	Eval        dtree.EvalStats
	CompileTime time.Duration
	EvalTime    time.Duration
}

// Distribution compiles e and computes its exact probability distribution.
func (p *Pipeline) Distribution(e expr.Expr) (prob.Dist, Report, error) {
	return p.DistributionCtx(context.Background(), e)
}

// DistributionCtx is Distribution under a context: compilation polls ctx
// at expansion steps and aborts with ctx.Err() once it is cancelled.
func (p *Pipeline) DistributionCtx(ctx context.Context, e expr.Expr) (prob.Dist, Report, error) {
	var rep Report
	if p.c == nil {
		p.c = compile.New(p.Semiring, p.Registry, p.Options)
	}
	t0 := time.Now()
	res, err := p.c.CompileCtx(ctx, e)
	p.c.Reset()
	if err != nil {
		return prob.Dist{}, rep, fmt.Errorf("core: compile %s: %w", expr.Abbrev(e), err)
	}
	rep.CompileTime = time.Since(t0)
	rep.Compile = res.Stats
	rep.Tree = dtree.Measure(res.Root)
	t1 := time.Now()
	d, evalStats, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: p.Semiring, Registry: p.Registry})
	if err != nil {
		return prob.Dist{}, rep, fmt.Errorf("core: evaluate %s: %w", expr.Abbrev(e), err)
	}
	rep.EvalTime = time.Since(t1)
	rep.Eval = evalStats
	return d, rep, nil
}

// JointOutcome is one row of a joint distribution: the values the input
// expressions take simultaneously, with their probability.
type JointOutcome struct {
	Values []string
	P      float64
}

// Joint computes the exact joint distribution of several expressions over
// the same probability space, by mutex (Shannon) decomposition on shared
// variables until the expressions become pairwise independent; independent
// expressions multiply (Section 5, "Compiling Joint Probability
// Distributions"). Outcomes are sorted by value tuple.
func (p *Pipeline) Joint(es []expr.Expr) ([]JointOutcome, error) {
	for _, e := range es {
		if err := expr.Validate(e); err != nil {
			return nil, err
		}
		if err := p.Registry.CheckDeclared(e); err != nil {
			return nil, err
		}
	}
	simplified := make([]expr.Expr, len(es))
	for i, e := range es {
		simplified[i] = expr.Simplify(e, p.Semiring)
	}
	acc := map[string]float64{}
	if err := p.joint(simplified, 1, acc); err != nil {
		return nil, err
	}
	out := make([]JointOutcome, 0, len(acc))
	for k, pr := range acc {
		out = append(out, JointOutcome{Values: strings.Split(k, "\x1f"), P: pr})
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].Values, ",") < strings.Join(out[j].Values, ",")
	})
	return out, nil
}

// joint recursively decomposes: if the expressions are pairwise
// independent, their joint is the product of the individual distributions;
// otherwise it Shannon-expands a variable shared between at least two of
// them.
func (p *Pipeline) joint(es []expr.Expr, weight float64, acc map[string]float64) error {
	if name, shared := sharedVariable(es); shared {
		x := expr.Intern(name)
		d, err := p.Registry.DistByID(x)
		if err != nil {
			return err
		}
		for _, pair := range d.Pairs() {
			sub := make([]expr.Expr, len(es))
			for i, e := range es {
				sub[i] = expr.Restrict(e, x, pair.V, p.Semiring)
			}
			if err := p.joint(sub, weight*pair.P, acc); err != nil {
				return err
			}
		}
		return nil
	}
	dists := make([]prob.Dist, len(es))
	for i, e := range es {
		d, _, err := p.Distribution(e)
		if err != nil {
			return err
		}
		dists[i] = d
	}
	// Cross product of independent outcome sets.
	var rec func(i int, key []string, pr float64)
	rec = func(i int, key []string, pr float64) {
		if pr == 0 {
			return
		}
		if i == len(dists) {
			acc[strings.Join(key, "\x1f")] += weight * pr
			return
		}
		for _, pair := range dists[i].Pairs() {
			rec(i+1, append(key, pair.V.String()), pr*pair.P)
		}
	}
	rec(0, make([]string, 0, len(dists)), 1)
	return nil
}

// sharedVariable returns a variable occurring in at least two of the
// expressions, preferring the one with most total occurrences.
func sharedVariable(es []expr.Expr) (string, bool) {
	seenIn := map[string]int{}
	total := map[string]int{}
	for _, e := range es {
		for x, n := range expr.VarCounts(e) {
			seenIn[x]++
			total[x] += n
		}
	}
	best, found := "", false
	for x, k := range seenIn {
		if k < 2 {
			continue
		}
		if !found || total[x] > total[best] || (total[x] == total[best] && x < best) {
			best, found = x, true
		}
	}
	return best, found
}
