package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"pvcagg"
	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/gen"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
	"pvcagg/internal/worlds"
)

// expr-exact: generated Eq. (11) expressions [Σ_AGG Φi ⊗ vi θ c] on the
// paper's §7.1 grid, through ExecExpr in Exact mode. Step II (compile →
// d-tree → distribution) does all the work; PVQL, the optimizer, step I,
// the store and the server do none, so a storage or step-I change must
// leave this workload's numbers where they are.
//
// The grid's shapes — which variables meet in which clause, the values
// vi, the constants c — are fixed by the cell, not by the seed: d-tree
// size is heavy-tailed in the shape (0.05 ms to 500 ms across shapes at
// equal parameters), so seed-drawn shapes would make two seeds two
// different benchmarks. The seed draws each variable's marginal
// probability and the order of the ops, which change every answer and
// no compilation cost.

// exprParams are the §7.1 parameters of the grid, sized so that one
// pass of the 48 ops takes about two seconds on two cores (the paper's
// #v=25, L=200 takes minutes per expression).
var exprParams = gen.Params{NumVars: 11, NumClauses: 3, NumLiterals: 3, MaxV: 200}

// exprConsts are the constants c for MIN/MAX; SUM scales them by 20 (the
// paper scales SUM's axis by maxv/2·L/… so that c sweeps the range of
// the aggregate, Fig. 7) and COUNT by L/200.
var exprConsts = []int64{30, 80, 130, 180}

type exprCell struct {
	agg   algebra.Agg
	theta value.Theta
	c     int64
	l     int
	shape int64 // the cell's fixed structure seed
}

func exprGrid() []exprCell {
	aggs := []algebra.Agg{algebra.Min, algebra.Max, algebra.Count, algebra.Sum}
	thetas := []value.Theta{value.EQ, value.LE, value.GE}
	var cells []exprCell
	for ai, agg := range aggs {
		for ti, th := range thetas {
			for ci, c := range exprConsts {
				l := 30 + (ai*5+ti*3+ci*4)%11 // L in 30..40
				switch agg {
				case algebra.Sum:
					c *= 20
				case algebra.Count:
					c = c * int64(l) / 200
				}
				cells = append(cells, exprCell{agg: agg, theta: th, c: c, l: l, shape: int64(1000 + len(cells))})
			}
		}
	}
	return cells
}

type exprOp struct {
	cell exprCell
	e    expr.Expr
	reg  *vars.Registry
}

func (c exprCell) String() string {
	return fmt.Sprintf("%s %s c=%d L=%d shape=%d", c.agg, c.theta, c.c, c.l, c.shape)
}

// exprExact is the workload over the grid at the given §7.1 parameters
// (the oracle test runs a smaller copy).
func exprExact(params gen.Params) func(seed int64, dir string) (*instance, error) {
	return func(seed int64, _ string) (*instance, error) { return setupExprExact(seed, params) }
}

func setupExprExact(seed int64, params gen.Params) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	cells := exprGrid()
	eops := make([]exprOp, len(cells))
	for i, c := range cells {
		p := params
		p.L, p.AggL, p.Theta, p.C = c.l, c.agg, c.theta, c.c
		inst, err := gen.NewWithRand(p, rand.New(rand.NewSource(c.shape)))
		if err != nil {
			return nil, err
		}
		// Same variables, seed-drawn marginals.
		reg := vars.NewRegistry()
		for _, name := range inst.Registry.Names() {
			reg.DeclareBool(name, 0.2+0.6*rng.Float64())
		}
		eops[i] = exprOp{cell: c, e: inst.Expr, reg: reg}
	}
	rng.Shuffle(len(eops), func(i, j int) { eops[i], eops[j] = eops[j], eops[i] })

	inst := &instance{clients: 1}
	for _, eo := range eops {
		eo := eo
		inst.ops = append(inst.ops, op{
			id:    eo.cell.String(),
			exact: true,
			run: func(ctx context.Context, _ int) (*answer, error) {
				res, err := pvcagg.ExecExpr(ctx, eo.e, eo.reg, algebra.Boolean, pvcagg.WithMode(pvcagg.Exact))
				if err != nil {
					return nil, err
				}
				return &answer{rows: []row{{Lo: res.Confidence.Lo, Hi: res.Confidence.Hi}}}, nil
			},
			stage: func(ctx context.Context, _ int, sp *spanCtx) (*answer, error) {
				d, err := stageExact(ctx, sp, algebra.SemiringFor(algebra.Boolean), eo.reg, eo.e)
				if err != nil {
					return nil, err
				}
				p := d.TruthProbability()
				return &answer{rows: []row{{Lo: p, Hi: p}}}, nil
			},
		})
	}
	// The oracle: every op's probability against brute-force enumeration
	// of the 2^#v possible worlds (Eq. (3)).
	inst.verify = func(_ context.Context, last []*answer) map[int]string {
		bad := map[int]string{}
		for i, eo := range eops {
			d, err := worlds.Enumerate(eo.e, eo.reg, algebra.SemiringFor(algebra.Boolean))
			if err != nil {
				bad[i] = err.Error()
				continue
			}
			want := d.TruthProbability()
			if got := last[i].rows[0]; math.Abs(got.Lo-want) > 1e-9 || got.Lo != got.Hi {
				bad[i] = fmt.Sprintf("probability [%v, %v], possible worlds give %v", got.Lo, got.Hi, want)
			}
		}
		return bad
	}
	return inst, nil
}
