package pvcagg_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"pvcagg"
	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/gen"
	"pvcagg/internal/value"
)

// execTestDB builds a small pvc-database with a grouped-SUM plan whose
// selection-on-aggregate annotations exercise the full pipeline, plus the
// plan itself.
func execTestDB(t *testing.T) (*pvcagg.Database, pvcagg.Plan) {
	t.Helper()
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	r := pvcagg.NewRelation("R", pvcagg.Schema{
		{Name: "k", Type: pvcagg.TValue},
		{Name: "v", Type: pvcagg.TValue},
	})
	for i := int64(0); i < 8; i++ {
		if _, err := db.InsertIndependent(r, 0.25+0.05*float64(i), pvcagg.IntCell(i%3), pvcagg.IntCell(10*i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Add(r)
	plan := &pvcagg.GroupAgg{
		Input:   &pvcagg.Scan{Table: "R"},
		GroupBy: []string{"k"},
		Aggs:    []pvcagg.AggSpec{{Out: "total", Agg: pvcagg.SUM, Over: "v"}},
	}
	return db, plan
}

// hardTestDB builds the Figure 1 shop database and the hard query Q2
// (selection on a MAX aggregate over a non-hierarchical join), which
// Classify rejects from Qind/Qhie.
func hardTestDB(t *testing.T) (*pvcagg.Database, pvcagg.Plan) {
	t.Helper()
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	declare := func(name string) pvcagg.Expr {
		db.Registry.DeclareBool(name, 0.5)
		return pvcagg.MustParseExpr(name)
	}
	s := pvcagg.NewRelation("S", pvcagg.Schema{
		{Name: "sid", Type: pvcagg.TValue},
		{Name: "shop", Type: pvcagg.TString},
	})
	for i, shop := range []string{"M&S", "M&S", "M&S", "Gap", "Gap"} {
		s.MustInsert(declare("x"+string(rune('1'+i))), pvcagg.IntCell(int64(i+1)), pvcagg.StringCell(shop))
	}
	db.Add(s)
	ps := pvcagg.NewRelation("PS", pvcagg.Schema{
		{Name: "sid", Type: pvcagg.TValue},
		{Name: "price", Type: pvcagg.TValue},
	})
	for i, row := range [][2]int64{{1, 10}, {1, 50}, {2, 11}, {3, 15}, {4, 60}, {5, 10}} {
		ps.MustInsert(declare("y"+string(rune('1'+i))), pvcagg.IntCell(row[0]), pvcagg.IntCell(row[1]))
	}
	db.Add(ps)
	plan := &pvcagg.Project{
		Cols: []string{"shop"},
		Input: &pvcagg.Select{
			Pred: pvcagg.Where(pvcagg.ColTheta("P", pvcagg.LE, pvcagg.IntCell(50))),
			Input: &pvcagg.GroupAgg{
				Input:   &pvcagg.Join{L: &pvcagg.Scan{Table: "S"}, R: &pvcagg.Scan{Table: "PS"}},
				GroupBy: []string{"shop"},
				Aggs:    []pvcagg.AggSpec{{Out: "P", Agg: pvcagg.MAX, Over: "price"}},
			},
		},
	}
	return db, plan
}

func collect(t *testing.T, db *pvcagg.Database, plan pvcagg.Plan, opts ...pvcagg.Option) (*pvcagg.Result, []pvcagg.TupleOutcome) {
	t.Helper()
	res, err := pvcagg.Exec(context.Background(), db, plan, opts...)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return res, outs
}

// TestExecDifferential is the acceptance criterion: the same plan runs
// through Exec in every mode, and all agree — bit-for-bit for exact
// paths, identical bounds for anytime, and Auto's chosen strategy matches
// Classify's verdict.
func TestExecDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*testing.T) (*pvcagg.Database, pvcagg.Plan)
	}{
		{"tractable", execTestDB},
		{"hard", hardTestDB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, plan := tc.mk(t)

			// Reference: exact sequential.
			_, ref := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(1))

			// Exact at several parallelisms: bit-for-bit.
			for _, par := range []int{0, 2, 4} {
				_, got := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(par))
				if len(got) != len(ref) {
					t.Fatalf("parallelism %d: %d outcomes, want %d", par, len(got), len(ref))
				}
				for i := range ref {
					if got[i].Tuple.Key() != ref[i].Tuple.Key() {
						t.Errorf("parallelism %d tuple %d: key %q != %q", par, i, got[i].Tuple.Key(), ref[i].Tuple.Key())
					}
					if got[i].Confidence != ref[i].Confidence {
						t.Errorf("parallelism %d tuple %d: confidence %v != %v (want bit-for-bit)", par, i, got[i].Confidence, ref[i].Confidence)
					}
					for j := range ref[i].AggDists {
						if !got[i].AggDists[j].Equal(ref[i].AggDists[j], 0) {
							t.Errorf("parallelism %d tuple %d agg %d: %v != %v", par, i, j, got[i].AggDists[j], ref[i].AggDists[j])
						}
					}
				}
			}

			// Anytime: bounds contain the exact confidence and obey ε;
			// aggregation columns stay bit-for-bit exact.
			eps := 0.02
			_, any1 := collect(t, db, plan, pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(eps), pvcagg.WithParallelism(1))
			for i := range ref {
				b := any1[i].Confidence
				if !b.Contains(ref[i].Confidence.Lo, 1e-12) {
					t.Errorf("anytime tuple %d: bounds %v do not contain exact %v", i, b, ref[i].Confidence.Lo)
				}
				if b.Width() > eps {
					t.Errorf("anytime tuple %d: width %v > ε %v", i, b.Width(), eps)
				}
				for j := range ref[i].AggDists {
					if !any1[i].AggDists[j].Equal(ref[i].AggDists[j], 0) {
						t.Errorf("anytime tuple %d agg %d: %v != %v", i, j, any1[i].AggDists[j], ref[i].AggDists[j])
					}
				}
			}
			// Anytime is deterministic: identical bounds at any parallelism.
			_, any4 := collect(t, db, plan, pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(eps), pvcagg.WithParallelism(4))
			for i := range any1 {
				if any1[i].Confidence != any4[i].Confidence {
					t.Errorf("anytime tuple %d: bounds %v (par 1) != %v (par 4)", i, any1[i].Confidence, any4[i].Confidence)
				}
			}

			// Auto: the chosen strategy must match Classify's verdict.
			autoRes, autoOuts := collect(t, db, plan, pvcagg.WithEps(eps))
			v := pvcagg.Classify(plan, db)
			wantMode := pvcagg.Exact
			if v.Class == pvcagg.Hard {
				wantMode = pvcagg.Anytime
			}
			if autoRes.Strategy.Chosen != wantMode {
				t.Errorf("Auto chose %v for a %v plan, want %v", autoRes.Strategy.Chosen, v.Class, wantMode)
			}
			if autoRes.Strategy.Requested != pvcagg.Auto {
				t.Errorf("Strategy.Requested = %v, want Auto", autoRes.Strategy.Requested)
			}
			if autoRes.Strategy.Verdict == nil || autoRes.Strategy.Verdict.Class != v.Class {
				t.Errorf("Strategy.Verdict = %+v, want class %v", autoRes.Strategy.Verdict, v.Class)
			}
			for i := range ref {
				if !autoOuts[i].Confidence.Contains(ref[i].Confidence.Lo, 1e-12) {
					t.Errorf("auto tuple %d: %v does not contain exact %v", i, autoOuts[i].Confidence, ref[i].Confidence.Lo)
				}
				if wantMode == pvcagg.Exact && autoOuts[i].Confidence != ref[i].Confidence {
					t.Errorf("auto tuple %d: exact route must be bit-for-bit, got %v want %v", i, autoOuts[i].Confidence, ref[i].Confidence)
				}
			}

			// Sample: intervals hit the exact confidence (10k samples at
			// 95% per tuple; the generous tolerance below makes flakes
			// astronomically unlikely) and are seed-reproducible.
			_, smp := collect(t, db, plan, pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(7))
			_, smp2 := collect(t, db, plan, pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(7), pvcagg.WithParallelism(4))
			for i := range ref {
				if !smp[i].Confidence.Contains(ref[i].Confidence.Lo, 0.05) {
					t.Errorf("sample tuple %d: %v too far from exact %v", i, smp[i].Confidence, ref[i].Confidence.Lo)
				}
				if smp[i].Confidence != smp2[i].Confidence {
					t.Errorf("sample tuple %d: seed 7 not reproducible across parallelism: %v != %v", i, smp[i].Confidence, smp2[i].Confidence)
				}
			}
		})
	}
}

// TestExecStreaming: the streaming iterator yields every tuple exactly
// once (re-associated via Index), matching Collect bit-for-bit, and an
// early break cancels the remaining work without deadlock.
func TestExecStreaming(t *testing.T) {
	db, plan := execTestDB(t)
	_, want := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact))

	res, err := pvcagg.Exec(context.Background(), db, plan, pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]pvcagg.TupleOutcome)
	for o, err := range res.Results() {
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := got[o.Index]; dup {
			t.Fatalf("tuple %d yielded twice", o.Index)
		}
		got[o.Index] = o
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d outcomes, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Confidence != w.Confidence || g.Tuple.Key() != w.Tuple.Key() {
			t.Errorf("tuple %d: streamed %v/%q, want %v/%q", i, g.Confidence, g.Tuple.Key(), w.Confidence, w.Tuple.Key())
		}
	}
	if res.Timing.Probability <= 0 {
		t.Errorf("Timing.Probability not populated after stream drain")
	}

	// The stream is single-use.
	if _, err := res.Collect(); !errors.Is(err, pvcagg.ErrConsumed) {
		t.Errorf("Collect after stream: err = %v, want ErrConsumed", err)
	}

	// Early break terminates cleanly.
	res2, err := pvcagg.Exec(context.Background(), db, plan, pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range res2.Results() {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("broke after %d outcomes, want 2", n)
	}

	// After Collect, Results replays the cached outcomes in tuple order.
	res3, outs := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact))
	i := 0
	for o, err := range res3.Results() {
		if err != nil {
			t.Fatal(err)
		}
		if o.Index != outs[i].Index {
			t.Errorf("replay out of order: got %d at position %d", o.Index, i)
		}
		i++
	}
	if i != len(outs) {
		t.Errorf("replayed %d outcomes, want %d", i, len(outs))
	}
}

// TestExecOptionValidation: contradictory option combinations are
// rejected with descriptive errors instead of silently picking a
// semantics, and every step-II setting has one spelling: WithApprox
// carries budgets only, and each other field of ApproxOptions is
// rejected with the name of the option that sets it.
func TestExecOptionValidation(t *testing.T) {
	db, plan := execTestDB(t)
	cases := []struct {
		name string
		opts []pvcagg.Option
		want string
	}{
		{"exact+eps", []pvcagg.Option{pvcagg.WithMode(pvcagg.Exact), pvcagg.WithEps(0.1)}, "WithEps conflicts with WithMode(Exact)"},
		{"exact+approx", []pvcagg.Option{pvcagg.WithMode(pvcagg.Exact), pvcagg.WithApprox(pvcagg.ApproxOptions{Eps: 0.1})}, "WithApprox conflicts"},
		{"eps-range", []pvcagg.Option{pvcagg.WithEps(1.5)}, "out of range"},
		{"eps-negative", []pvcagg.Option{pvcagg.WithEps(-0.1)}, "out of range"},
		{"approx-eps", []pvcagg.Option{pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithApprox(pvcagg.ApproxOptions{Eps: 0.2})}, "WithEps"},
		{"approx-compile", []pvcagg.Option{pvcagg.WithApprox(pvcagg.ApproxOptions{Compile: pvcagg.CompileOptions{MaxNodes: 20}})}, "WithCompileBudget"},
		{"approx-onbounds", []pvcagg.Option{pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithApprox(pvcagg.ApproxOptions{OnBounds: func(pvcagg.Bounds) {}})}, "WithOnBounds"},
		// ε = 0 ("exact, please") plus a budget that can abandon
		// convergence is a hard error.
		{"anytime-eps0-budget", []pvcagg.Option{pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(0), pvcagg.WithApprox(pvcagg.ApproxOptions{MaxNodes: 100})}, "contradictory anytime options"},
		{"auto-eps0", []pvcagg.Option{pvcagg.WithEps(0)}, "disables the anytime fallback"},
		{"sample-noseed", []pvcagg.Option{pvcagg.WithMode(pvcagg.Sample)}, "requires an explicit WithSeed"},
		{"sample+eps", []pvcagg.Option{pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(1), pvcagg.WithEps(0.1)}, "WithEps conflicts with WithMode(Sample)"},
		{"sample-bad-n", []pvcagg.Option{pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(1), pvcagg.WithSamples(0)}, "must be positive"},
		{"seed-wrong-mode", []pvcagg.Option{pvcagg.WithMode(pvcagg.Exact), pvcagg.WithSeed(1)}, "WithSeed only applies"},
		{"samples-wrong-mode", []pvcagg.Option{pvcagg.WithSamples(100)}, "WithSamples only applies"},
		{"bad-timeout", []pvcagg.Option{pvcagg.WithTimeout(-time.Second)}, "must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := pvcagg.Exec(context.Background(), db, plan, tc.opts...)
			if err == nil {
				t.Fatalf("no error for %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err.Error(), tc.want)
			}
		})
	}

	// Anytime ε = 0 with *no* budgets keeps the documented exact-fallback
	// contract.
	_, outs := collect(t, db, plan, pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(0))
	_, ref := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact))
	for i := range ref {
		if outs[i].Confidence != ref[i].Confidence {
			t.Errorf("tuple %d: anytime ε=0 %v != exact %v (bit-for-bit contract)", i, outs[i].Confidence, ref[i].Confidence)
		}
	}
}

// TestExecOnBoundsAllModes: WithOnBounds is never silently dead — every
// strategy (including Auto's exact route) reports per-tuple bounds.
func TestExecOnBoundsAllModes(t *testing.T) {
	db, plan := execTestDB(t)
	for _, tc := range []struct {
		name string
		opts []pvcagg.Option
	}{
		{"exact", []pvcagg.Option{pvcagg.WithMode(pvcagg.Exact)}},
		{"anytime", []pvcagg.Option{pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(0.05)}},
		{"auto-exact-route", nil},
		{"sample", []pvcagg.Option{pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(1), pvcagg.WithSamples(100)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			opts := append(tc.opts,
				pvcagg.WithParallelism(1), // single worker: no locking needed
				pvcagg.WithOnBounds(func(pvcagg.Bounds) { calls++ }))
			res, err := pvcagg.Exec(context.Background(), db, plan, opts...)
			if err != nil {
				t.Fatal(err)
			}
			outs, err := res.Collect()
			if err != nil {
				t.Fatal(err)
			}
			if calls < len(outs) {
				t.Errorf("OnBounds called %d times for %d tuples", calls, len(outs))
			}
		})
	}
}

// TestExecCancellation: cancelling the context mid-run aborts the
// in-flight compilations on the exact, parallel-exact and anytime paths,
// and Collect surfaces context.Canceled.
func TestExecCancellation(t *testing.T) {
	db, plan := hardTestDB(t)
	for _, tc := range []struct {
		name string
		opts []pvcagg.Option
	}{
		{"exact-seq", []pvcagg.Option{pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(1)}},
		{"exact-par", []pvcagg.Option{pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(4)}},
		{"anytime", []pvcagg.Option{pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(1e-9)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel() // cancelled before step II starts
			res, err := pvcagg.Exec(ctx, db, plan, tc.opts...)
			if err != nil {
				// EvalPlan already noticed the cancellation — acceptable.
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Exec error = %v, want context.Canceled", err)
				}
				return
			}
			if _, err := res.Collect(); !errors.Is(err, context.Canceled) {
				t.Errorf("Collect error = %v, want context.Canceled", err)
			}
		})
	}

	// WithTimeout behaves like external cancellation.
	res, err := pvcagg.Exec(context.Background(), db, plan,
		pvcagg.WithMode(pvcagg.Exact), pvcagg.WithTimeout(time.Nanosecond))
	if err == nil {
		if _, err = res.Collect(); err == nil {
			t.Fatal("no error from a 1ns timeout")
		}
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout error = %v, want context.DeadlineExceeded", err)
	}
}

// TestExecExprBudgetDeterministic: a compile budget on a bare expression
// is an exact statement about the d-tree, at the default parallelism too.
// The budget equal to the node count of an unbudgeted run succeeds, one
// node less fails with ErrNodeBudget, and neither ever flips: there is one
// compiler and it counts the nodes of the d-tree it returns.
func TestExecExprBudgetDeterministic(t *testing.T) {
	ctx := context.Background()
	// 3223 Shannon expansions, 5283 nodes: large enough that a compiler
	// fanning Shannon branches over a shared memo compiles some
	// sub-expression twice in about one run in six on two cores.
	inst := gen.MustNew(gen.Params{
		L: 16, R: 8, NumVars: 14, NumClauses: 2, NumLiterals: 2,
		MaxV: 30, AggL: algebra.Min, AggR: algebra.Count, Theta: value.LE, Seed: 1,
	})
	free, err := pvcagg.ExecExpr(ctx, inst.Expr, inst.Registry, pvcagg.Boolean, pvcagg.WithMode(pvcagg.Exact))
	if err != nil {
		t.Fatal(err)
	}
	n := free.Report.Compile.Nodes
	if free.Report.Compile.Shannon < 1000 {
		t.Fatalf("instance needs only %d Shannon expansions (%d nodes); not Shannon-heavy", free.Report.Compile.Shannon, n)
	}
	for rep := 0; rep < 20; rep++ {
		fit, err := pvcagg.ExecExpr(ctx, inst.Expr, inst.Registry, pvcagg.Boolean,
			pvcagg.WithMode(pvcagg.Exact), pvcagg.WithCompileBudget(n))
		if err != nil {
			t.Fatalf("rep %d: budget %d (the d-tree's size): %v", rep, n, err)
		}
		if fit.Report.Compile != free.Report.Compile || !fit.Dist.Equal(free.Dist, 0) {
			t.Fatalf("rep %d: budgeted run differs: %+v vs %+v", rep, fit.Report.Compile, free.Report.Compile)
		}
		if _, err := pvcagg.ExecExpr(ctx, inst.Expr, inst.Registry, pvcagg.Boolean,
			pvcagg.WithMode(pvcagg.Exact), pvcagg.WithCompileBudget(n-1)); !errors.Is(err, compile.ErrNodeBudget) {
			t.Fatalf("rep %d: budget %d: err = %v, want ErrNodeBudget", rep, n-1, err)
		}
	}
}

// TestExecTable: the table-level entrypoint matches Exec on the same
// plan's evaluated relation, and Auto selects the anytime engine.
func TestExecTable(t *testing.T) {
	db, plan := execTestDB(t)
	res, want := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact))

	tres, err := pvcagg.ExecTable(context.Background(), db, res.Rel, pvcagg.WithMode(pvcagg.Exact))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tres.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d outcomes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Confidence != want[i].Confidence {
			t.Errorf("tuple %d: %v != %v", i, got[i].Confidence, want[i].Confidence)
		}
	}

	auto, err := pvcagg.ExecTable(context.Background(), db, res.Rel)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Strategy.Chosen != pvcagg.Anytime {
		t.Errorf("ExecTable Auto chose %v, want Anytime", auto.Strategy.Chosen)
	}
	aouts, err := auto.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !aouts[i].Confidence.Contains(want[i].Confidence.Lo, 1e-12) {
			t.Errorf("tuple %d: auto bounds %v miss exact %v", i, aouts[i].Confidence, want[i].Confidence.Lo)
		}
	}
}

// TestExecExpr: the expression-level entrypoint across modes, including
// Auto's exact-probe-then-anytime fallback.
func TestExecExpr(t *testing.T) {
	ctx := context.Background()
	reg := pvcagg.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("y", 0.5)
	e := pvcagg.MustParseExpr("[min(x @min 10, y @min 20) <= 15]")

	exact, err := pvcagg.ExecExpr(ctx, e, reg, pvcagg.Boolean, pvcagg.WithMode(pvcagg.Exact))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Confidence.Lo-0.5) > 1e-12 || exact.Confidence.Width() != 0 {
		t.Errorf("exact confidence %v, want [0.5, 0.5]", exact.Confidence)
	}
	if exact.Dist.P(pvcagg.BoolV(true)) != exact.Confidence.Lo {
		t.Errorf("Dist and Confidence disagree")
	}

	auto, err := pvcagg.ExecExpr(ctx, e, reg, pvcagg.Boolean)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Strategy.Chosen != pvcagg.Exact {
		t.Errorf("Auto on a tiny expression chose %v, want Exact (probe succeeds)", auto.Strategy.Chosen)
	}
	if auto.Confidence != exact.Confidence {
		t.Errorf("auto %v != exact %v", auto.Confidence, exact.Confidence)
	}

	// A compile budget of 1 node forces Auto's anytime fallback.
	fb, err := pvcagg.ExecExpr(ctx, e, reg, pvcagg.Boolean, pvcagg.WithCompileBudget(1), pvcagg.WithEps(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if fb.Strategy.Chosen != pvcagg.Anytime {
		t.Errorf("Auto with a 1-node budget chose %v, want Anytime fallback", fb.Strategy.Chosen)
	}
	if !fb.Confidence.Contains(0.5, 1e-12) || fb.Confidence.Width() > 0.01 {
		t.Errorf("fallback bounds %v, want ⊇ 0.5 with width ≤ 0.01", fb.Confidence)
	}

	anytime, err := pvcagg.ExecExpr(ctx, e, reg, pvcagg.Boolean, pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if !anytime.Confidence.Contains(0.5, 1e-12) || !anytime.Approx.Converged {
		t.Errorf("anytime %v (converged=%v)", anytime.Confidence, anytime.Approx.Converged)
	}

	smp, err := pvcagg.ExecExpr(ctx, e, reg, pvcagg.Boolean, pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if !smp.Confidence.Contains(0.5, 0.05) {
		t.Errorf("sampled %v too far from 0.5", smp.Confidence)
	}
	smp2, err := pvcagg.ExecExpr(ctx, e, reg, pvcagg.Boolean, pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if smp.Confidence != smp2.Confidence {
		t.Errorf("seed 42 not reproducible: %v != %v", smp.Confidence, smp2.Confidence)
	}

	// Sampling honours the context: a cancelled ctx aborts the world
	// loop instead of running all samples to completion.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := pvcagg.ExecExpr(cctx, e, reg, pvcagg.Boolean,
		pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(1), pvcagg.WithSamples(50_000_000)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sample run: err = %v, want context.Canceled", err)
	}

	// WithParallelism counts workers across result tuples; a bare
	// expression compiles on one goroutine whatever it says, so the
	// distribution and the compilation itself are the same at every n.
	par1, err := pvcagg.ExecExpr(ctx, e, reg, pvcagg.Boolean, pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par8, err := pvcagg.ExecExpr(ctx, e, reg, pvcagg.Boolean, pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*pvcagg.ExprResult{"WithParallelism(1)": par1, "WithParallelism(8)": par8} {
		if got.Confidence != exact.Confidence || !got.Dist.Equal(exact.Dist, 0) {
			t.Errorf("%s: ExecExpr %v != default %v", name, got.Confidence, exact.Confidence)
		}
		if got.Report.Compile != exact.Report.Compile {
			t.Errorf("%s: compile stats %+v != default %+v", name, got.Report.Compile, exact.Report.Compile)
		}
	}

	// Module expressions: exact only; Anytime refuses.
	m := pvcagg.MustParseExpr("sum(x @sum 5, y @sum 7)")
	mres, err := pvcagg.ExecExpr(ctx, m, reg, pvcagg.Boolean)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Strategy.Chosen != pvcagg.Exact || mres.Dist.Size() == 0 {
		t.Errorf("module expression: strategy %v, dist %v", mres.Strategy.Chosen, mres.Dist)
	}
	if _, err := pvcagg.ExecExpr(ctx, m, reg, pvcagg.Boolean, pvcagg.WithMode(pvcagg.Anytime)); err == nil {
		t.Error("Anytime on a module expression: want error")
	}
}
