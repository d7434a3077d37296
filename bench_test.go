// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 7). Each benchmark family corresponds to one figure;
// run with
//
//	go test -bench=. -benchmem
//
// Absolute times are hardware- and language-dependent; the reproduced
// quantities are the qualitative shapes (see EXPERIMENTS.md): growth and
// saturation in c (Figure 7), linear growth in L (Figure 8b), the
// easy/hard/easy phase transition in #v (Figure 8a) and #l/#cl (Figure 9),
// the asymmetric behaviour of two-sided comparisons (Figure 10), and the
// polynomial ⟦·⟧/P(·) overhead on TPC-H (Figure 11). The benchmark
// parameters are scaled down from the paper's so that the full suite
// completes in minutes; cmd/experiments -preset paper runs the original
// parameters.
package pvcagg_test

import (
	"context"
	"fmt"
	"testing"

	"pvcagg"
	"pvcagg/internal/algebra"
	"pvcagg/internal/benchx"
	"pvcagg/internal/compile"
	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/gen"
	"pvcagg/internal/tpch"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// benchBase mirrors Section 7.1's base parameters, scaled down
// (#v=15, L=40 instead of #v=25, L=200).
func benchBase() gen.Params { return benchx.QuickBase() }

func distOnce(b *testing.B, p gen.Params) {
	b.Helper()
	inst := gen.MustNew(p)
	exactLoop(b, inst.Expr, inst.Registry, compile.Options{MaxNodes: 5_000_000})
}

// exactLoop computes e's exact distribution b.N times on the engine's
// exact path, compiled under o.
func exactLoop(b *testing.B, e expr.Expr, reg *vars.Registry, o compile.Options) {
	b.Helper()
	cfg := engine.ExecConfig{Compile: o}
	s := algebra.SemiringFor(algebra.Boolean)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := engine.Interpret(context.Background(), s, reg, e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7ExpA: Experiment A (Figure 7) — vary the constant c for
// each aggregation monoid and comparison operator.
func BenchmarkFig7ExpA(b *testing.B) {
	aggs := []algebra.Agg{algebra.Min, algebra.Max, algebra.Count, algebra.Sum}
	thetas := []value.Theta{value.EQ, value.LE, value.GE}
	cs := []int64{0, 50, 100, 200, 300}
	for _, agg := range aggs {
		for _, th := range thetas {
			for _, c := range cs {
				name := fmt.Sprintf("%s/%s/c=%d", agg, thName(th), c)
				b.Run(name, func(b *testing.B) {
					p := benchBase()
					p.AggL = agg
					p.Theta = th
					p.C = c
					if agg == algebra.Sum {
						p.C = c * 20 // the paper scales SUM's axis by maxv/2
					}
					p.Seed = 1
					distOnce(b, p)
				})
			}
		}
	}
}

// BenchmarkFig8bExpB: Experiment B (Figure 8b) — vary the number of terms
// L at constant #v.
func BenchmarkFig8bExpB(b *testing.B) {
	for _, agg := range []algebra.Agg{algebra.Min, algebra.Max, algebra.Count, algebra.Sum} {
		for _, l := range []int{10, 40, 100, 200} {
			b.Run(fmt.Sprintf("%s/L=%d", agg, l), func(b *testing.B) {
				p := benchBase()
				p.AggL = agg
				p.Theta = value.EQ
				p.L = l
				p.Seed = 1
				distOnce(b, p)
			})
		}
	}
}

// BenchmarkFig8aExpC: Experiment C (Figure 8a) — vary the number of
// distinct variables #v at constant expression size (easy/hard/easy).
func BenchmarkFig8aExpC(b *testing.B) {
	for _, v := range []int{4, 8, 12, 16, 24, 40, 80} {
		b.Run(fmt.Sprintf("v=%d", v), func(b *testing.B) {
			p := benchBase()
			p.L = 30
			p.NumClauses = 2
			p.NumLiterals = 2
			p.MaxV = 5
			p.C = 3
			p.Theta = value.EQ
			p.NumVars = v
			p.Seed = 1
			distOnce(b, p)
		})
	}
}

// BenchmarkFig9ExpD: Experiment D (Figure 9) — vary literals per clause
// (a) and clauses per term (b).
func BenchmarkFig9ExpD(b *testing.B) {
	for _, agg := range []algebra.Agg{algebra.Min, algebra.Count} {
		for _, l := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("literals/%s/l=%d", agg, l), func(b *testing.B) {
				p := benchBase()
				p.L = 30
				p.MaxV = 5
				p.C = 3
				p.Theta = value.LE
				p.AggL = agg
				p.NumLiterals = l
				p.Seed = 1
				distOnce(b, p)
			})
		}
		for _, cl := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("clauses/%s/cl=%d", agg, cl), func(b *testing.B) {
				p := benchBase()
				p.L = 30
				p.MaxV = 5
				p.C = 3
				p.Theta = value.LE
				p.AggL = agg
				p.NumClauses = cl
				p.Seed = 1
				distOnce(b, p)
			})
		}
	}
}

// BenchmarkFig10ExpE: Experiment E (Figure 10) — two-sided comparisons
// with different aggregations per side, varying L then R.
func BenchmarkFig10ExpE(b *testing.B) {
	pairs := []benchx.AggPair{
		{L: algebra.Min, R: algebra.Max},
		{L: algebra.Min, R: algebra.Count},
		{L: algebra.Max, R: algebra.Sum},
	}
	for _, pair := range pairs {
		for _, l := range []int{10, 40, 80} {
			b.Run(fmt.Sprintf("%s-%s/L=%d", pair.L, pair.R, l), func(b *testing.B) {
				p := benchBase()
				p.NumClauses = 2
				p.NumLiterals = 2
				p.AggL, p.AggR = pair.L, pair.R
				p.L, p.R = l, 20
				p.Theta = value.LE
				p.Seed = 1
				distOnce(b, p)
			})
		}
		for _, r := range []int{10, 40, 80} {
			b.Run(fmt.Sprintf("%s-%s/R=%d", pair.L, pair.R, r), func(b *testing.B) {
				p := benchBase()
				p.NumClauses = 2
				p.NumLiterals = 2
				p.AggL, p.AggR = pair.L, pair.R
				p.L, p.R = 20, r
				p.Theta = value.LE
				p.Seed = 1
				distOnce(b, p)
			})
		}
	}
}

// BenchmarkFig11ExpF: Experiment F (Figure 11) — TPC-H Q1 and Q2 at
// increasing scale factors, separating Q0 (deterministic), ⟦·⟧
// (expression construction) and P(·) (probability computation).
func BenchmarkFig11ExpF(b *testing.B) {
	ctx := context.Background()
	for _, sf := range []float64{0.0002, 0.0005, 0.001} {
		det, err := tpch.Generate(tpch.Config{SF: sf, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		prb, err := tpch.Generate(tpch.Config{SF: sf, Seed: 1, Probabilistic: true})
		if err != nil {
			b.Fatal(err)
		}
		plans := []struct {
			name string
			plan engine.Plan
		}{
			{"Q1", tpch.Q1(1200)},
			{"Q2", tpch.Q2(1, "AFRICA")},
		}
		for _, q := range plans {
			b.Run(fmt.Sprintf("%s/Q0/sf=%g", q.name, sf), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := engine.StreamEvalPlan(ctx, det, q.plan); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/JK/sf=%g", q.name, sf), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := engine.StreamEvalPlan(ctx, prb, q.plan); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/P/sf=%g", q.name, sf), func(b *testing.B) {
				rel, _, err := engine.StreamEvalPlan(ctx, prb, q.plan)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := engine.Outcomes(ctx, prb, rel, engine.ExecConfig{Parallelism: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Paired sequential/parallel benchmarks for the concurrent execution
// layer: the same workload runs once through the sequential path and
// once through the bounded worker pool, so the reported ratio is the
// engine-level speedup (≈1× at GOMAXPROCS=1, growing with cores).

// BenchmarkParallelProbabilities: batched per-tuple probability
// computation on a multi-tuple TPC-H-style workload (Q1's grouped
// aggregates at growing scale factors).
func BenchmarkParallelProbabilities(b *testing.B) {
	ctx := context.Background()
	for _, sf := range []float64{0.001, 0.002} {
		prb, err := tpch.Generate(tpch.Config{SF: sf, Seed: 1, Probabilistic: true})
		if err != nil {
			b.Fatal(err)
		}
		plan := tpch.Q1(1200)
		rel, _, err := engine.StreamEvalPlan(ctx, prb, plan)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("sequential/sf=%g", sf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Outcomes(ctx, prb, rel, engine.ExecConfig{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("parallel/sf=%g", sf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Outcomes(ctx, prb, rel, engine.ExecConfig{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApproxVsExact: the anytime approximate engine against exact
// compilation on a hard two-sided comparison with skewed marginals — the
// regime where unexpanded Shannon branches carry little probability mass
// and the anytime engine converges after expanding a fraction of the
// d-tree. The reported ratio is the anytime speedup at each ε.
func BenchmarkApproxVsExact(b *testing.B) {
	p := benchBase()
	p.NumClauses = 2
	p.NumLiterals = 2
	p.AggL, p.AggR = algebra.Min, algebra.Count
	p.L, p.R = 30, 15
	p.NumVars = 20
	p.Theta = value.LE
	p.VarProb = 0.95
	p.Seed = 1
	inst := gen.MustNew(p)
	opts := compile.Options{MaxNodes: 20_000_000}
	b.Run("exact", func(b *testing.B) {
		exactLoop(b, inst.Expr, inst.Registry, opts)
	})
	for _, eps := range []float64{0.05, 0.01} {
		b.Run(fmt.Sprintf("approx/eps=%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, rep, err := compile.Approximate(algebra.SemiringFor(algebra.Boolean), inst.Registry, inst.Expr, compile.ApproxOptions{Eps: eps, Compile: opts})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Converged {
					b.Fatal("did not converge")
				}
			}
		})
	}
}

// Ablation benchmarks for the design choices called out in DESIGN.md.

func ablationParams() gen.Params {
	p := benchBase()
	p.AggL = algebra.Count
	p.Theta = value.LE
	p.C = 5
	p.L = 60
	p.Seed = 1
	return p
}

// BenchmarkAblationNoPruning: pruning + capping on vs off. The workload
// is the paper's own pruning example shape: [Σmin Φi⊗vi ≤ c] with a small
// c, where most terms have vi > c and are provably redundant.
func BenchmarkAblationNoPruning(b *testing.B) {
	params := benchBase()
	params.AggL = algebra.Min
	params.Theta = value.LE
	params.C = 20 // vi are uniform in [0, 200]: ~90% of terms prune away
	params.L = 60
	params.Seed = 1
	for _, off := range []bool{false, true} {
		name := "pruning=on"
		if off {
			name = "pruning=off"
		}
		b.Run(name, func(b *testing.B) {
			inst := gen.MustNew(params)
			exactLoop(b, inst.Expr, inst.Registry, compile.Options{DisablePruning: off, MaxNodes: 5_000_000})
		})
	}
}

// BenchmarkAblationNoMemo: sub-expression memoisation on vs off.
func BenchmarkAblationNoMemo(b *testing.B) {
	p := ablationParams()
	p.L = 25
	p.NumVars = 10
	for _, off := range []bool{false, true} {
		name := "memo=on"
		if off {
			name = "memo=off"
		}
		b.Run(name, func(b *testing.B) {
			inst := gen.MustNew(p)
			exactLoop(b, inst.Expr, inst.Registry, compile.Options{DisableMemo: off, MaxNodes: 20_000_000})
		})
	}
}

// BenchmarkAblationVarOrder: Shannon variable-choice heuristics.
func BenchmarkAblationVarOrder(b *testing.B) {
	orders := []struct {
		name string
		ord  compile.VarOrder
	}{
		{"most-occurrences", compile.MostOccurrences},
		{"least-occurrences", compile.LeastOccurrences},
		{"lexicographic", compile.Lexicographic},
	}
	p := ablationParams()
	p.L = 25
	p.NumVars = 12
	for _, o := range orders {
		b.Run(o.name, func(b *testing.B) {
			inst := gen.MustNew(p)
			exactLoop(b, inst.Expr, inst.Registry, compile.Options{Order: o.ord, MaxNodes: 20_000_000})
		})
	}
}

// BenchmarkAblationNoFactoring: read-once factoring on vs off, on the
// hierarchical-style annotations where factoring is the whole game.
func BenchmarkAblationNoFactoring(b *testing.B) {
	// Example 14-style read-once module sum: x_i(y_i1⊗v + y_i2⊗v).
	build := func(n int) (pvcagg.Expr, *pvcagg.Registry) {
		reg := pvcagg.NewRegistry()
		s := "["
		for i := 0; i < n; i++ {
			xi := fmt.Sprintf("x%d", i)
			y1 := fmt.Sprintf("y%da", i)
			y2 := fmt.Sprintf("y%db", i)
			reg.DeclareBool(xi, 0.5)
			reg.DeclareBool(y1, 0.5)
			reg.DeclareBool(y2, 0.5)
			if i > 0 {
				s += ", "
			} else {
				s = "[min("
			}
			s += fmt.Sprintf("%s*%s @min %d, %s*%s @min %d", xi, y1, 10+i, xi, y2, 20+i)
		}
		s += ") <= 15]"
		return pvcagg.MustParseExpr(s), reg
	}
	e, reg := build(12)
	for _, off := range []bool{false, true} {
		name := "factoring=on"
		if off {
			name = "factoring=off"
		}
		b.Run(name, func(b *testing.B) {
			exactLoop(b, e, reg, compile.Options{DisableFactoring: off, MaxNodes: 20_000_000})
		})
	}
}

func thName(th value.Theta) string {
	switch th {
	case value.EQ:
		return "eq"
	case value.LE:
		return "le"
	case value.GE:
		return "ge"
	default:
		return th.String()
	}
}
