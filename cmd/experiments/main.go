// Command experiments regenerates the paper's evaluation (Section 7):
// Experiments A–E on random conditional expressions (Figures 7–10) and
// Experiment F on TPC-H data (Figure 11), printing the same series the
// paper plots.
//
// Usage:
//
//	experiments                 # every experiment, quick preset
//	experiments -exp A          # one experiment
//	experiments -preset paper   # the paper's exact parameters (slow!)
//	experiments -runs 10        # runs per point
//	experiments -parallel 0     # Experiment F: per-tuple fan-out (GOMAXPROCS)
//	experiments -eps 0.05       # anytime approximate engine at bound width ε
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"pvcagg/internal/algebra"
	"pvcagg/internal/benchx"
	"pvcagg/internal/gen"
	"pvcagg/internal/value"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: A, B, C, D, E, F or all")
		preset   = flag.String("preset", "quick", "parameter preset: quick or paper")
		runs     = flag.Int("runs", 5, "runs per measured point")
		parallel = flag.Int("parallel", 1, "Experiment F probability-step parallelism across result tuples (0 = GOMAXPROCS, 1 = sequential)")
		eps      = flag.Float64("eps", 0, "anytime bound width; > 0 measures the approximate engine")
	)
	flag.Parse()
	if *parallel == 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}

	var base gen.Params
	switch *preset {
	case "quick":
		base = benchx.QuickBase()
	case "paper":
		base = benchx.PaperBase()
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown preset %q\n", *preset)
		os.Exit(2)
	}
	o := benchx.Options{Runs: *runs, Eps: *eps}
	w := os.Stdout
	want := strings.ToUpper(*exp)
	run := func(name string) bool { return want == "ALL" || want == name }

	aggs := []algebra.Agg{algebra.Min, algebra.Max, algebra.Count, algebra.Sum}
	thetas := []value.Theta{value.EQ, value.LE, value.GE}

	if run("A") {
		cs := []int64{0, 25, 50, 100, 150, 200, 250, 300}
		for _, agg := range aggs {
			b := base
			csAgg := cs
			if agg == algebra.Sum && *preset == "paper" {
				csAgg = []int64{0, 2500, 5000, 10000, 15000, 20000, 25000, 30000}
			}
			pts := benchx.ExperimentA(b, agg, thetas, csAgg, o)
			benchx.Print(w, fmt.Sprintf("Experiment A (Figure 7): %s, varying c", agg), pts)
			fmt.Fprintln(w)
		}
	}
	if run("B") {
		ls := []int{10, 25, 50, 100, 200}
		if *preset == "paper" {
			ls = []int{10, 50, 100, 250, 500, 1000}
		}
		b := base
		b.Theta = value.EQ
		pts := benchx.ExperimentB(b, aggs, ls, o)
		benchx.Print(w, "Experiment B (Figure 8b): varying the number of terms L", pts)
		fmt.Fprintln(w)
	}
	if run("C") {
		b := base
		b.L = 40
		b.NumClauses = 2
		b.NumLiterals = 2
		b.MaxV = 5
		b.C = 3
		b.Theta = value.EQ
		b.AggL = algebra.Min
		vs := []int{4, 8, 12, 16, 24, 32, 48, 64, 96, 128}
		if *preset == "paper" {
			b.L = 90
			vs = []int{10, 25, 50, 75, 100, 150, 200, 250, 300}
		}
		pts := benchx.ExperimentC(b, vs, o)
		benchx.Print(w, "Experiment C (Figure 8a): varying the number of variables #v (easy/hard/easy)", pts)
		fmt.Fprintln(w)
	}
	if run("D") {
		b := base
		b.L = 40
		b.MaxV = 5
		b.C = 3
		b.Theta = value.LE
		if *preset == "paper" {
			b.L = 100
		}
		pts := benchx.ExperimentD(b, aggs, []int{1, 2, 4, 8, 16, 24}, true, o)
		benchx.Print(w, "Experiment D (Figure 9a): varying literals per clause #l", pts)
		fmt.Fprintln(w)
		pts = benchx.ExperimentD(b, aggs, []int{1, 2, 4, 8, 16}, false, o)
		benchx.Print(w, "Experiment D (Figure 9b): varying clauses per term #cl", pts)
		fmt.Fprintln(w)
	}
	if run("E") {
		b := base
		b.NumClauses = 2
		b.NumLiterals = 2
		b.MaxV = 200
		b.C = 100
		b.Theta = value.LE
		pairs := []benchx.AggPair{
			{L: algebra.Min, R: algebra.Max},
			{L: algebra.Min, R: algebra.Count},
			{L: algebra.Max, R: algebra.Sum},
		}
		xs := []int{10, 25, 50, 100, 200}
		fixed := 40
		if *preset == "paper" {
			xs = []int{100, 250, 500, 1000, 1500, 2000}
			fixed = 150
		}
		b.R = fixed
		pts := benchx.ExperimentE(b, pairs, xs, true, o)
		benchx.Print(w, fmt.Sprintf("Experiment E (Figure 10a): varying L at R=%d", fixed), pts)
		fmt.Fprintln(w)
		b.L = fixed
		pts = benchx.ExperimentE(b, pairs, xs, false, o)
		benchx.Print(w, fmt.Sprintf("Experiment E (Figure 10b): varying R at L=%d", fixed), pts)
		fmt.Fprintln(w)
	}
	if run("F") {
		sfs := []float64{0.0002, 0.0005, 0.001, 0.002}
		if *preset == "paper" {
			sfs = []float64{0.005, 0.01, 0.02, 0.05, 0.1}
		}
		pts, err := benchx.ExperimentF(sfs, 1, *parallel, *eps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		benchx.PrintF(w, pts)
	}
}
