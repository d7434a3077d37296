// Command expcompile parses a semiring/semimodule/conditional expression,
// compiles it into a decomposition tree (Algorithm 1 of the paper) and
// prints the tree, its statistics and its exact probability distribution.
//
// Usage:
//
//	expcompile -expr '[min(x*y @min 5, (x+z) @min 10) <= 7]' \
//	           -var x=0.5 -var y=0.3 -var z=0.9 [-dot] [-no-pruning]
//
// Variables not declared with -var default to Boolean with probability p
// given by -p (default 0.5).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/vars"
)

type varFlags []string

func (v *varFlags) String() string     { return strings.Join(*v, ",") }
func (v *varFlags) Set(s string) error { *v = append(*v, s); return nil }

func main() {
	var (
		exprText  = flag.String("expr", "", "expression to compile (required)")
		defaultP  = flag.Float64("p", 0.5, "default marginal probability of undeclared Boolean variables")
		semiring  = flag.String("semiring", "B", "valuation semiring: B (Boolean) or N (naturals)")
		dot       = flag.Bool("dot", false, "print the d-tree in Graphviz DOT syntax")
		noPrune   = flag.Bool("no-pruning", false, "disable pruning rules and capping")
		maxNodes  = flag.Int("max-nodes", 10_000_000, "abort compilation beyond this many d-tree nodes")
		varsGiven varFlags
	)
	flag.Var(&varsGiven, "var", "variable declaration name=prob (repeatable)")
	flag.Parse()
	if *exprText == "" {
		fmt.Fprintln(os.Stderr, "expcompile: -expr is required")
		flag.Usage()
		os.Exit(2)
	}

	e, err := expr.Parse(*exprText)
	if err != nil {
		fatal(err)
	}
	reg := vars.NewRegistry()
	for _, decl := range varsGiven {
		name, probText, ok := strings.Cut(decl, "=")
		if !ok {
			fatal(fmt.Errorf("bad -var %q, want name=prob", decl))
		}
		p, err := strconv.ParseFloat(probText, 64)
		if err != nil {
			fatal(fmt.Errorf("bad probability in -var %q: %v", decl, err))
		}
		reg.DeclareBool(name, p)
	}
	for _, x := range expr.Vars(e) {
		if !reg.Has(x) {
			reg.DeclareBool(x, *defaultP)
		}
	}
	var kind algebra.SemiringKind
	switch *semiring {
	case "B":
		kind = algebra.Boolean
	case "N":
		kind = algebra.Natural
	default:
		fatal(fmt.Errorf("unknown semiring %q (want B or N)", *semiring))
	}
	s := algebra.SemiringFor(kind)

	c := compile.New(s, reg, compile.Options{
		DisablePruning: *noPrune,
		MaxNodes:       *maxNodes,
	})
	res, err := c.CompileCtx(context.Background(), e)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("expression: %s\n", expr.String(e))
	fmt.Printf("compile stats: %+v\n", res.Stats)
	st := dtree.Measure(res.Root)
	fmt.Printf("d-tree: %d nodes, %d leaves, depth %d, %d ⊔-nodes\n\n", st.Nodes, st.Leaves, st.Depth, st.Exclusive)
	if *dot {
		fmt.Println(dtree.DOT(res.Root))
	} else {
		fmt.Println(dtree.String(res.Root))
	}
	d, evalStats, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("distribution: %s\n", d)
	fmt.Printf("evaluation: %d node evaluations, max distribution size %d\n", evalStats.NodeEvals, evalStats.MaxDistSize)
	if e.Kind() == expr.KindSemiring {
		fmt.Printf("P[non-zero] = %.6g\n", d.TruthProbability())
	} else {
		fmt.Printf("E[value]    = %.6g\n", d.Expectation())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "expcompile:", err)
	os.Exit(1)
}
