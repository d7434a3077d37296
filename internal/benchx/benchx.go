// Package benchx is the experiment harness reproducing the paper's
// Section 7: Experiments A–E on random conditional expressions (Figures
// 7–10) and Experiment F on TPC-H data (Figure 11). Each experiment
// produces the same series the paper plots: run time (mean and standard
// deviation over #runs, dropping the slowest and fastest runs) against the
// swept parameter.
//
// Absolute times differ from the paper's C/PostgreSQL testbed; the shapes
// (growth in c, saturation, easy/hard/easy phase transitions, the ⟦·⟧ and
// P(·) overheads over Q0) are the reproduced quantities (EXPERIMENTS.md).
package benchx

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/core"
	"pvcagg/internal/engine"
	"pvcagg/internal/gen"
	"pvcagg/internal/pvc"
	"pvcagg/internal/tpch"
	"pvcagg/internal/value"
)

// Point is one measured point of a series.
type Point struct {
	Series string        // e.g. "MIN/<=" or "Q1 P(·)"
	X      float64       // the swept parameter value
	Mean   time.Duration // mean run time (slowest and fastest dropped)
	Std    time.Duration // standard deviation estimate
	Runs   int           // successful runs
	Failed int           // runs aborted by the node budget
	Nodes  int           // mean d-tree node count
}

// Options bound the harness.
type Options struct {
	Runs     int // expressions per point (paper: 10–40)
	MaxNodes int // compilation node budget per run (0 = unlimited)
	// Eps > 0 measures the anytime approximate engine at that target
	// bound width instead of exact compilation; the Nodes column then
	// reports the anytime work proxy (partial-tree plus closure nodes),
	// unconverged runs count as failed.
	Eps float64
}

func (o Options) orDefault() Options {
	if o.Runs == 0 {
		o.Runs = 5
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 2_000_000
	}
	return o
}

// measure compiles and evaluates Runs instances of p, timing each.
func measure(p gen.Params, o Options) Point {
	o = o.orDefault()
	times := make([]time.Duration, 0, o.Runs)
	nodes := 0
	failed := 0
	for r := 0; r < o.Runs; r++ {
		p.Seed = int64(r + 1)
		inst := gen.MustNew(p)
		pl := core.Pipeline{
			Semiring: algebra.SemiringFor(algebra.Boolean),
			Registry: inst.Registry,
			Options:  compile.Options{MaxNodes: o.MaxNodes},
		}
		ctx := context.Background()
		t0 := time.Now()
		runNodes := 0
		var err error
		if o.Eps > 0 {
			var arep compile.ApproxReport
			_, arep, err = pl.TruthProbabilityApproxCtx(ctx, inst.Expr, compile.ApproxOptions{Eps: o.Eps, MaxNodes: o.MaxNodes})
			runNodes = arep.TotalNodes()
			if err == nil && !arep.Converged {
				// A budget-exhausted anytime run is the analogue of the
				// exact path's MaxNodes abort: count it as failed rather
				// than averaging its truncated time into the series.
				failed++
				continue
			}
		} else {
			var rep core.Report
			_, rep, err = pl.DistributionCtx(ctx, inst.Expr)
			runNodes = rep.Tree.Nodes
		}
		if err != nil {
			failed++
			continue
		}
		times = append(times, time.Since(t0))
		nodes += runNodes
	}
	pt := Point{Runs: len(times), Failed: failed}
	if len(times) > 0 {
		pt.Nodes = nodes / len(times)
		pt.Mean, pt.Std = meanStd(times)
	}
	return pt
}

// meanStd drops the slowest and fastest runs (as the paper does) and
// returns mean and standard deviation.
func meanStd(times []time.Duration) (time.Duration, time.Duration) {
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	if len(times) > 2 {
		times = times[1 : len(times)-1]
	}
	var sum float64
	for _, t := range times {
		sum += float64(t)
	}
	mean := sum / float64(len(times))
	var sq float64
	for _, t := range times {
		d := float64(t) - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(times)))
	return time.Duration(mean), time.Duration(std)
}

// ExperimentA (Figure 7): vary the constant c for different aggregation
// monoids and comparison operators. Base parameters per the paper:
// #v=25, L=200, R=0, #cl=3, #l=3, maxv=200.
func ExperimentA(base gen.Params, agg algebra.Agg, thetas []value.Theta, cs []int64, o Options) []Point {
	var out []Point
	for _, th := range thetas {
		for _, c := range cs {
			p := base
			p.AggL = agg
			p.Theta = th
			p.C = c
			pt := measure(p, o)
			pt.Series = fmt.Sprintf("%s/%s", agg, th)
			pt.X = float64(c)
			out = append(out, pt)
		}
	}
	return out
}

// ExperimentB (Figure 8b): vary the number of terms L at constant #v.
func ExperimentB(base gen.Params, aggs []algebra.Agg, ls []int, o Options) []Point {
	var out []Point
	for _, agg := range aggs {
		for _, l := range ls {
			p := base
			p.AggL = agg
			p.L = l
			pt := measure(p, o)
			pt.Series = agg.String()
			pt.X = float64(l)
			out = append(out, pt)
		}
	}
	return out
}

// ExperimentC (Figure 8a): vary the number of distinct variables #v at
// constant expression size — the easy/hard/easy phase transition.
func ExperimentC(base gen.Params, vs []int, o Options) []Point {
	var out []Point
	for _, v := range vs {
		p := base
		p.NumVars = v
		pt := measure(p, o)
		pt.Series = base.AggL.String()
		pt.X = float64(v)
		out = append(out, pt)
	}
	return out
}

// ExperimentD (Figure 9): vary the literals per clause (sweepLiterals) or
// the clauses per term.
func ExperimentD(base gen.Params, aggs []algebra.Agg, xs []int, sweepLiterals bool, o Options) []Point {
	var out []Point
	for _, agg := range aggs {
		for _, x := range xs {
			p := base
			p.AggL = agg
			if sweepLiterals {
				p.NumLiterals = x
			} else {
				p.NumClauses = x
			}
			pt := measure(p, o)
			pt.Series = agg.String()
			pt.X = float64(x)
			out = append(out, pt)
		}
	}
	return out
}

// AggPair is a left/right monoid combination for Experiment E.
type AggPair struct{ L, R algebra.Agg }

// ExperimentE (Figure 10): two-sided comparisons with different
// aggregations per side, varying L (sweepLeft) or R.
func ExperimentE(base gen.Params, pairs []AggPair, xs []int, sweepLeft bool, o Options) []Point {
	var out []Point
	for _, pair := range pairs {
		for _, x := range xs {
			p := base
			p.AggL, p.AggR = pair.L, pair.R
			if sweepLeft {
				p.L = x
			} else {
				p.R = x
			}
			pt := measure(p, o)
			pt.Series = fmt.Sprintf("%s/%s", pair.L, pair.R)
			pt.X = float64(x)
			out = append(out, pt)
		}
	}
	return out
}

// FPoint is one Experiment F measurement at a scale factor.
type FPoint struct {
	Query  string  // "Q1" or "Q2"
	SF     float64 //
	Q0     time.Duration
	JK     time.Duration // expression construction ⟦·⟧
	P      time.Duration // probability computation P(·)
	Tuples int
}

// ExperimentF (Figure 11): TPC-H queries Q1 and Q2 at increasing scale
// factors, separating deterministic evaluation (Q0), expression
// construction (⟦·⟧) and probability computation (P(·)). With
// parallelism > 1 the probability step runs on the batched parallel
// engine; with eps > 0 it runs on the anytime approximate engine at that
// per-tuple bound width.
func ExperimentF(sfs []float64, seed int64, parallelism int, eps float64) ([]FPoint, error) {
	var out []FPoint
	for _, sf := range sfs {
		det, err := tpch.Generate(tpch.Config{SF: sf, Seed: seed})
		if err != nil {
			return nil, err
		}
		prb, err := tpch.Generate(tpch.Config{SF: sf, Seed: seed, Probabilistic: true})
		if err != nil {
			return nil, err
		}
		partKey, region := pickQ2Instance(det)
		queries := []struct {
			name string
			plan engine.Plan
		}{
			{"Q1", tpch.Q1(1200)},
			{"Q2", tpch.Q2(partKey, region)},
		}
		ctx := context.Background()
		for _, q := range queries {
			_, q0, err := engine.StreamEvalPlan(ctx, det, q.plan)
			if err != nil {
				return nil, fmt.Errorf("benchx: %s Q0 at SF %v: %w", q.name, sf, err)
			}
			// One unified engine configuration covers all three measured
			// variants: exact sequential, exact parallel, anytime.
			cfg := engine.ExecConfig{Parallelism: parallelism}
			if eps > 0 {
				cfg.Approx = &compile.ApproxOptions{Eps: eps}
			}
			rel, construct, err := engine.StreamEvalPlan(ctx, prb, q.plan)
			if err != nil {
				return nil, fmt.Errorf("benchx: %s at SF %v: %w", q.name, sf, err)
			}
			t1 := time.Now()
			if _, err := engine.Outcomes(ctx, prb, rel, cfg); err != nil {
				return nil, fmt.Errorf("benchx: %s at SF %v: %w", q.name, sf, err)
			}
			out = append(out, FPoint{
				Query: q.name, SF: sf,
				Q0: q0, JK: construct, P: time.Since(t1),
				Tuples: rel.Len(),
			})
		}
	}
	return out, nil
}

// pickQ2Instance probes part keys and regions until Q2 has a non-empty
// answer on the deterministic database, so that Experiment F's P(·)
// measurement exercises a real nested aggregate.
func pickQ2Instance(det *pvc.Database) (int64, string) {
	regions := []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	for key := int64(1); key <= 25; key++ {
		for _, r := range regions {
			rel, _, err := engine.StreamEvalPlan(context.Background(), det, tpch.Q2(key, r))
			if err == nil && rel.Len() > 0 {
				return key, r
			}
		}
	}
	return 1, "AFRICA"
}

// Print renders points as an aligned table.
func Print(w io.Writer, title string, pts []Point) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-14s %10s %14s %14s %6s %7s %10s\n", "series", "x", "mean", "std", "runs", "failed", "nodes")
	for _, p := range pts {
		fmt.Fprintf(w, "%-14s %10.4g %14s %14s %6d %7d %10d\n",
			p.Series, p.X, p.Mean, p.Std, p.Runs, p.Failed, p.Nodes)
	}
}

// PrintF renders Experiment F points.
func PrintF(w io.Writer, pts []FPoint) {
	fmt.Fprintf(w, "Experiment F (Figure 11): TPC-H Q1/Q2\n")
	fmt.Fprintf(w, "%-4s %10s %14s %14s %14s %8s\n", "q", "SF", "Q0", "⟦·⟧", "P(·)", "tuples")
	for _, p := range pts {
		fmt.Fprintf(w, "%-4s %10.4g %14s %14s %14s %8d\n", p.Query, p.SF, p.Q0, p.JK, p.P, p.Tuples)
	}
}

// Scaled parameter presets. The "paper" presets use the exact parameters
// of Section 7.1; the "quick" presets shrink L and #v so the full suite
// finishes in seconds on a laptop while preserving every qualitative
// shape.

// QuickBase is the scaled-down base configuration for Experiments A–D.
func QuickBase() gen.Params {
	return gen.Params{
		L: 40, R: 0, NumVars: 15, NumClauses: 3, NumLiterals: 3,
		MaxV: 200, AggL: algebra.Min, Theta: value.LE, C: 100,
	}
}

// PaperBase is the paper's base configuration (#v=25, L=200, #cl=3, #l=3,
// maxv=200).
func PaperBase() gen.Params {
	return gen.Params{
		L: 200, R: 0, NumVars: 25, NumClauses: 3, NumLiterals: 3,
		MaxV: 200, AggL: algebra.Min, Theta: value.LE, C: 100,
	}
}
