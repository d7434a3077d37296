package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/dtree"
	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/gen"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
	"pvcagg/internal/testutil"
	"pvcagg/internal/testutil/dtreeref"
	"pvcagg/internal/tpch"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
	"pvcagg/internal/worlds"
)

// streamDB builds a pvc-table with some healthy tuples and two tuples
// annotated with undeclared variables (so their outcome computation
// fails), to exercise the per-tuple error semantics of the unified
// runners.
func streamDB(t *testing.T) (*pvc.Database, *pvc.Relation) {
	t.Helper()
	db := pvc.NewDatabase(algebra.Boolean)
	rel := pvc.NewRelation("R", pvc.Schema{{Name: "a", Type: pvc.TValue}})
	for i := int64(0); i < 5; i++ {
		if _, err := db.InsertIndependent(rel, 0.5, pvc.IntCell(i)); err != nil {
			t.Fatal(err)
		}
	}
	rel.Tuples = append(rel.Tuples,
		pvc.Tuple{Cells: []pvc.Cell{pvc.IntCell(100)}, Ann: expr.V("ghost1")},
		pvc.Tuple{Cells: []pvc.Cell{pvc.IntCell(101)}, Ann: expr.V("ghost2")},
	)
	db.Add(rel)
	return db, rel
}

// TestStreamPerTupleErrors: Outcomes hands back the healthy tuples, in
// tuple order, alongside one error that joins the failures, at every
// parallelism.
func TestStreamPerTupleErrors(t *testing.T) {
	db, rel := streamDB(t)
	for _, par := range []int{1, 4} {
		outs, err := engine.Outcomes(context.Background(), db, rel, engine.ExecConfig{Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d: want error", par)
		}
		for _, want := range []string{"2 of 7 tuples failed", "ghost1", "ghost2"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("parallelism %d: error %q does not mention %q", par, err, want)
			}
		}
		if len(outs) != 5 {
			t.Fatalf("parallelism %d: %d outcomes, want the 5 healthy tuples", par, len(outs))
		}
		for i, o := range outs {
			if o.Index != i || o.Confidence != compile.Point(0.5) {
				t.Errorf("parallelism %d position %d: tuple %d confidence %v, want tuple %d [0.5, 0.5]", par, i, o.Index, o.Confidence, i)
			}
		}
	}
}

// TestTupleErrorsAreBounded: a TPC-H Q1 group's annotation and COUNT
// expression render to tens of kilobytes each, and a per-tuple error is
// built for every tuple of a timed-out request and for every node-budget
// probe Auto throws away. The error must stay small and still say which
// tuple failed.
func TestTupleErrorsAreBounded(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{SF: 0.001, Seed: 1, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := engine.StreamEvalPlan(context.Background(), db, tpch.Q1(1200))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rel.Tuples[0].Key()); n < 10_000 {
		t.Fatalf("Q1 tuple key is only %d bytes; the test needs a large aggregate", n)
	}
	check := func(what string, err, cause error) {
		t.Helper()
		if !errors.Is(err, cause) {
			t.Fatalf("%s: error %v, want %v", what, err, cause)
		}
		msg := err.Error()
		if len(msg) >= 1024 {
			t.Errorf("%s: error is %d bytes, want < 1 KB: %.200s…", what, len(msg), msg)
		}
		flag, status := rel.Tuples[0].Cells[0].String(), rel.Tuples[0].Cells[1].String()
		if !strings.Contains(msg, "⟨"+flag+", "+status+", ") {
			t.Errorf("%s: error does not name tuple ⟨%s, %s, …⟩: %s", what, flag, status, msg)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = engine.TupleOutcomeForTest(ctx, db, engine.ExecConfig{}, rel, 0)
	check("cancelled compile", err, context.Canceled)
	_, err = engine.TupleOutcomeForTest(context.Background(), db,
		engine.ExecConfig{Compile: compile.Options{MaxNodes: 4}}, rel, 0)
	check("node budget", err, compile.ErrNodeBudget)
}

// TestStreamCancelled: a context cancelled before Outcomes starts
// returns context.Canceled and fewer than all tuples instead of hanging
// or silently truncating.
func TestStreamCancelled(t *testing.T) {
	db, rel := streamDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, err := engine.Outcomes(ctx, db, rel, engine.ExecConfig{Parallelism: 4})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v, want context.Canceled", err)
	}
	if len(outs) >= len(rel.Tuples) {
		t.Errorf("cancelled run still returned %d of %d tuples", len(outs), len(rel.Tuples))
	}
}

// TestPanicContainment: a panic while computing one tuple (here a nil
// annotation) is recovered in the worker goroutine and surfaces as a
// typed *PanicError for that tuple only — the other tuples still come
// back, no goroutine dies with the process, and none leak.
func TestPanicContainment(t *testing.T) {
	checkLeaks := testutil.CheckGoroutines(t)
	db, rel := streamDB(t)
	rel.Tuples = rel.Tuples[:5]
	rel.Tuples = append(rel.Tuples, pvc.Tuple{Cells: []pvc.Cell{pvc.IntCell(200)}, Ann: nil})
	for _, par := range []int{1, 4} {
		outs, err := engine.Outcomes(context.Background(), db, rel, engine.ExecConfig{Parallelism: par})
		var pe *engine.PanicError
		if !errors.As(err, &pe) || pe.Index != 5 || len(pe.Stack) == 0 {
			t.Fatalf("parallelism %d: error %v, want the PanicError of tuple 5 with a stack", par, err)
		}
		if !strings.Contains(err.Error(), "1 of 6 tuples failed") {
			t.Errorf("parallelism %d: error %q does not count one failure", par, err)
		}
		if len(outs) != 5 || outs[4].Index != 4 {
			t.Errorf("parallelism %d: %d outcomes, want tuples 0–4", par, len(outs))
		}
	}
	checkLeaks()
}

// TestCompileCountsTheTree: for the compilations the worker runs — one
// compiler per worker, its memo reset after every annotation and column —
// the compiler's own counters are the d-tree's size: Stats.Nodes is every
// node reachable from the root and Stats.Shannon its exclusive (⊔x)
// nodes, and the report's Compile.Nodes sums them over a tuple. So no
// second walk of the tree has to count it again.
func TestCompileCountsTheTree(t *testing.T) {
	ctx := context.Background()
	check := func(name string, db *pvc.Database, plan engine.Plan) {
		t.Helper()
		rel, _, err := engine.StreamEvalPlan(ctx, db, plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		outs, err := engine.Outcomes(ctx, db, rel, engine.ExecConfig{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := compile.New(db.Semiring(), db.Registry, compile.Options{})
		for i, tup := range rel.Tuples {
			exprs := []expr.Expr{tup.Ann}
			for _, ci := range rel.Schema.ModuleColumns() {
				e, err := tup.Cells[ci].ModuleExpr()
				if err != nil {
					t.Fatal(err)
				}
				exprs = append(exprs, e)
			}
			nodes := 0
			for _, e := range exprs {
				res, err := c.CompileCtx(ctx, e)
				if err != nil {
					t.Fatalf("%s tuple %d: %v", name, i, err)
				}
				m := dtree.Measure(res.Root) // before Reset, which invalidates the tree
				c.Reset()
				if res.Stats.Nodes != m.Nodes || res.Stats.Shannon != m.Exclusive {
					t.Errorf("%s tuple %d: compiler counted %d nodes, %d Shannon; the tree has %d nodes, %d exclusive",
						name, i, res.Stats.Nodes, res.Stats.Shannon, m.Nodes, m.Exclusive)
				}
				nodes += m.Nodes
			}
			if got := outs[i].Report.Exact.Compile.Nodes; got != nodes {
				t.Errorf("%s tuple %d: report counts %d nodes, its trees have %d", name, i, got, nodes)
			}
		}
	}
	tp, err := tpch.Generate(tpch.Config{SF: 0.0005, Seed: 1, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	check("TPC-H Q1", tp, tpch.Q1(1200))
	check("TPC-H Q2", tp, tpch.Q2(1, "AFRICA"))
	for seed := int64(1); seed <= 40; seed++ {
		inst := gen.MustNewDB(gen.DBParams{Seed: seed})
		check(fmt.Sprintf("generated seed %d", seed), inst.DB, inst.Plan)
	}
}

// TestNaryEqualsBinaryTPCHQ1 holds the d-trees of TPC-H Q1's annotations
// and aggregation columns, whose ⊕ nodes have hundreds of parts and fold,
// to their binary form (dtreeref.AssertNaryEqualsBinary), compiled on
// one compiler as a worker's, whose Reset poisons the nodes it frees.
func TestNaryEqualsBinaryTPCHQ1(t *testing.T) {
	ctx := context.Background()
	db, err := tpch.Generate(tpch.Config{SF: 0.0005, Seed: 1, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := engine.StreamEvalPlan(ctx, db, tpch.Q1(1200))
	if err != nil {
		t.Fatal(err)
	}
	env := dtree.Env{Semiring: db.Semiring(), Registry: db.Registry}
	compile.PoisonResetForTest(t)
	c := compile.New(db.Semiring(), db.Registry, compile.Options{})
	for i, tup := range rel.Tuples {
		exprs := []expr.Expr{tup.Ann}
		for _, ci := range rel.Schema.ModuleColumns() {
			e, err := tup.Cells[ci].ModuleExpr()
			if err != nil {
				t.Fatal(err)
			}
			exprs = append(exprs, e)
		}
		for j, e := range exprs {
			res, err := c.CompileCtx(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			dtreeref.AssertNaryEqualsBinary(t, fmt.Sprintf("tuple %d expression %d", i, j), res.Root, env)
			c.Reset()
		}
	}
}

// TestOutcomesSamplingDeterminism: the sampling strategy is reproducible
// from (seed, tuple index) at any parallelism, and different seeds give
// different estimates.
func TestOutcomesSamplingDeterminism(t *testing.T) {
	db, rel := streamDB(t)
	rel.Tuples = rel.Tuples[:5] // drop the failing tuples
	cfg := engine.ExecConfig{Samples: 2000, Seed: 3}
	a, err := engine.Outcomes(context.Background(), db, rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	b, err := engine.Outcomes(context.Background(), db, rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	differentSeed := engine.ExecConfig{Samples: 2000, Seed: 4}
	c, err := engine.Outcomes(context.Background(), db, rel, differentSeed)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range a {
		if a[i].Confidence != b[i].Confidence {
			t.Errorf("tuple %d: seed 3 not parallelism-invariant: %v != %v", i, a[i].Confidence, b[i].Confidence)
		}
		if !a[i].Confidence.Contains(0.5, 0.1) {
			t.Errorf("tuple %d: sampled %v too far from 0.5", i, a[i].Confidence)
		}
		if a[i].Confidence != c[i].Confidence {
			changed = true
		}
		if a[i].Report.Samples != 2000 {
			t.Errorf("tuple %d: Report.Samples = %d, want 2000", i, a[i].Report.Samples)
		}
	}
	if !changed {
		t.Error("changing the seed changed no estimate")
	}
}

// exactDist computes e's distribution and report on the exact strategy.
func exactDist(t *testing.T, reg *vars.Registry, e expr.Expr) (prob.Dist, engine.ExactReport) {
	t.Helper()
	_, d, rep, err := engine.Interpret(context.Background(), algebra.SemiringFor(algebra.Boolean), reg, e, engine.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return d, rep.Exact
}

func TestDistributionEndToEnd(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("y", 0.4)
	d, rep := exactDist(t, reg, expr.MustParse("x+y"))
	want := 1 - 0.5*0.6
	if got := d.P(value.Bool(true)); math.Abs(got-want) > 1e-12 {
		t.Errorf("P[x∨y] = %v, want %v", got, want)
	}
	if rep.Compile.Nodes == 0 || rep.Eval.NodeEvals == 0 {
		t.Errorf("report not filled: %+v", rep)
	}
}

// The confidence of a tuple annotated with e is its distribution's mass
// off the semiring's zero.
func TestTruthProbability(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.25)
	reg.DeclareBool("y", 0.5)
	d, _ := exactDist(t, reg, expr.MustParse("x*y"))
	if got := d.TruthProbability(); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("TruthProbability = %v, want 0.125", got)
	}
}

// The exact path handles annotations mixing several monoids in one
// conditional product (as produced by $ with several aggregates).
func TestMixedMonoidAnnotation(t *testing.T) {
	reg := vars.NewRegistry()
	for i := 0; i < 4; i++ {
		reg.DeclareBool(fmt.Sprintf("x%d", i), 0.5)
	}
	e := expr.MustParse("[min(x0 @min 5, x1 @min 9) <= 6] * [sum(x2 @sum 2, x3 @sum 2) >= 2]")
	d, _ := exactDist(t, reg, e)
	want, err := worlds.Enumerate(e, reg, algebra.SemiringFor(algebra.Boolean))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(want, 1e-9) {
		t.Errorf("mixed-monoid distribution:\n got %v\nwant %v", d, want)
	}
}

func TestDistributionErrorPropagation(t *testing.T) {
	reg := vars.NewRegistry()
	s := algebra.SemiringFor(algebra.Boolean)
	if _, _, _, err := engine.Interpret(context.Background(), s, reg, expr.V("ghost"), engine.ExecConfig{}); err == nil {
		t.Errorf("undeclared variable accepted")
	}
	if _, err := engine.Joint(context.Background(), s, reg, []expr.Expr{expr.V("ghost")}, engine.ExecConfig{}); err == nil {
		t.Errorf("Joint accepted undeclared variable")
	}
}
