package pvcagg_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pvcagg"
	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/gen"
	"pvcagg/internal/value"
	"pvcagg/internal/worlds"
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
// paths, identical bounds for anytime, and Auto equal to Exact where every
// tuple compiles within its node bound.
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

			// Auto routes each tuple: every tuple of both plans — the hard
			// one's too — compiles within its node bound, so Auto is Exact
			// bit for bit, and the strategy stays Auto.
			autoRes, autoOuts := collect(t, db, plan, pvcagg.WithEps(eps))
			if s := autoRes.Strategy; s.Requested != pvcagg.Auto || s.Chosen != pvcagg.Auto || s.Eps != eps {
				t.Errorf("Strategy = %+v, want Auto requested and chosen at ε %v", s, eps)
			}
			for i := range ref {
				if autoOuts[i].Confidence != ref[i].Confidence || autoOuts[i].Report.Approx != nil {
					t.Errorf("auto tuple %d: %v (anytime report %v), want exact %v", i, autoOuts[i].Confidence, autoOuts[i].Report.Approx, ref[i].Confidence)
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

// autoHardDB builds a hard plan — σ reads two aggregates of a group, so
// Classify calls it hard — whose two-row group k = 2 and one-row group
// k = 3 compile within their Section 6 node bound and whose 16-row group
// k = 1 (572 nodes, bound 360) does not.
func autoHardDB(t *testing.T) (*pvcagg.Database, pvcagg.Plan) {
	t.Helper()
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	r := pvcagg.NewRelation("R", pvcagg.Schema{{Name: "k", Type: pvcagg.TValue}, {Name: "v", Type: pvcagg.TValue}})
	rows := [][2]int64{{2, 10}, {2, 12}, {3, 25}}
	for i := int64(0); i < 16; i++ {
		rows = append(rows, [2]int64{1, 1 + (i*2)%3})
	}
	for _, row := range rows {
		if _, err := db.InsertIndependent(r, 0.5, pvcagg.IntCell(row[0]), pvcagg.IntCell(row[1])); err != nil {
			t.Fatal(err)
		}
	}
	db.Add(r)
	return db, &pvcagg.Project{Cols: []string{"k"}, Input: &pvcagg.Select{
		Pred: pvcagg.Where(pvcagg.ColTheta("s", pvcagg.GE, pvcagg.IntCell(20)), pvcagg.ColTheta("n", pvcagg.LE, pvcagg.IntCell(10))),
		Input: &pvcagg.GroupAgg{Input: &pvcagg.Scan{Table: "R"}, GroupBy: []string{"k"},
			Aggs: []pvcagg.AggSpec{{Out: "s", Agg: pvcagg.SUM, Over: "v"}, {Out: "n", Agg: pvcagg.COUNT, Over: "v"}}},
	}}
}

// TestExecAutoRoutesEachTuple: Auto decides per tuple, not per plan. Over
// a hard plan the tuples within the node bound answer bit for bit as
// under Exact, and the one over it is bracketed by the anytime engine
// within ε around the possible-worlds answer — the same bounds at
// parallelism 1 and 4.
func TestExecAutoRoutesEachTuple(t *testing.T) {
	db, plan := autoHardDB(t)
	if v := pvcagg.Classify(plan, db); v.Class != pvcagg.Hard {
		t.Fatalf("classified %v (%s), want hard", v.Class, v.Reason)
	}
	_, exact := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(1))
	const eps = 0.01
	var first []pvcagg.TupleOutcome
	for _, par := range []int{1, 4} {
		res, outs := collect(t, db, plan, pvcagg.WithEps(eps), pvcagg.WithParallelism(par))
		if res.Strategy.Chosen != pvcagg.Auto || len(outs) != 3 {
			t.Fatalf("parallelism %d: strategy %v, %d tuples; want Auto and 3", par, res.Strategy, len(outs))
		}
		for i, o := range outs {
			ann := o.Tuple.Ann
			bound := engine.NodeBound(engine.Weight(ann, db.Registry))
			if large := exact[i].Report.Exact.Compile.Nodes > bound; large != (i == 0) {
				t.Fatalf("tuple %d: %d nodes against bound %d; want only tuple 0 over it", i, exact[i].Report.Exact.Compile.Nodes, bound)
			}
			if i > 0 {
				if o.Confidence != exact[i].Confidence || o.Report.Approx != nil {
					t.Errorf("parallelism %d tuple %d: %v (anytime report %v), want exact %v", par, i, o.Confidence, o.Report.Approx, exact[i].Confidence)
				}
				continue
			}
			want, err := worlds.Enumerate(ann, db.Registry, db.Semiring())
			if err != nil {
				t.Fatal(err)
			}
			p := want.TruthProbability()
			if o.Report.Approx == nil || !o.Confidence.Contains(p, 0) || o.Confidence.Width() > eps {
				t.Errorf("parallelism %d tuple 0: %v (anytime report %v), want a bracket of width ≤ %v around %v", par, o.Confidence, o.Report.Approx, eps, p)
			}
		}
		if first == nil {
			first = outs
		} else if outs[0].Confidence != first[0].Confidence {
			t.Errorf("tuple 0: bounds %v at parallelism 4, %v at 1", outs[0].Confidence, first[0].Confidence)
		}
	}
}

// TestExecAutoEasyPlanIsExact: every tuple of a tractable plan compiles
// within its node bound, so Auto answers it as Exact does, bit for bit —
// confidences and aggregation columns — and no tuple reports an anytime
// run, at parallelism 1 and 4.
func TestExecAutoEasyPlanIsExact(t *testing.T) {
	db, plan := execTestDB(t)
	if v := pvcagg.Classify(plan, db); v.Class == pvcagg.Hard {
		t.Fatalf("classified hard (%s), want tractable", v.Reason)
	}
	_, exact := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(1))
	for _, par := range []int{1, 4} {
		_, outs := collect(t, db, plan, pvcagg.WithParallelism(par))
		if len(outs) != len(exact) {
			t.Fatalf("parallelism %d: %d tuples, want %d", par, len(outs), len(exact))
		}
		for i, o := range outs {
			if o.Confidence != exact[i].Confidence || o.Report.Approx != nil {
				t.Errorf("parallelism %d tuple %d: %v (anytime report %v), want exact %v", par, i, o.Confidence, o.Report.Approx, exact[i].Confidence)
			}
			for j, d := range exact[i].AggDists {
				if !o.AggDists[j].Equal(d, 0) {
					t.Errorf("parallelism %d tuple %d agg %d: %v != %v", par, i, j, o.AggDists[j], d)
				}
			}
		}
	}
}

// TestExecStreaming: the worker pool hands its outcomes out through
// Collect alone — in tuple order, each at the position its Index names,
// bit for bit the sequential run's at parallelism 4 — with the step II
// time recorded, and a second Collect returns the same outcomes without
// running step II again.
func TestExecStreaming(t *testing.T) {
	db, plan := execTestDB(t)
	_, want := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(1))
	res, got := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(4))
	if len(got) != len(want) {
		t.Fatalf("collected %d outcomes, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Index != i || g.Confidence != w.Confidence || g.Tuple.Key() != w.Tuple.Key() {
			t.Errorf("position %d: tuple %d %v/%q, want tuple %d %v/%q", i, g.Index, g.Confidence, g.Tuple.Key(), i, w.Confidence, w.Tuple.Key())
		}
	}
	if res.Timing.Probability <= 0 {
		t.Errorf("Timing.Probability not populated after Collect")
	}
	again, err := res.Collect()
	if err != nil || len(again) != len(got) || &again[0] != &got[0] {
		t.Errorf("second Collect: %d outcomes, err %v; want the first call's %d", len(again), err, len(got))
	}
}

// TestExecCollectReturnsFinished: when some tuples fail, Collect still hands
// back the ones that finished, in tuple order, alongside an error that
// names the failure. The compile budget makes the failure deterministic:
// the SUM columns of the two-row groups (k = 0, 2) compile within 8
// nodes, that of the three-row group (k = 1) does not.
func TestExecCollectReturnsFinished(t *testing.T) {
	db, plan := execTestDB(t)
	_, ref := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact))
	for _, par := range []int{1, 4} {
		res, err := pvcagg.Exec(context.Background(), db, plan, pvcagg.WithMode(pvcagg.Exact),
			pvcagg.WithCompileBudget(8), pvcagg.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		outs, err := res.Collect()
		if !errors.Is(err, compile.ErrNodeBudget) || !strings.Contains(err.Error(), "1 of 3 tuples failed") {
			t.Fatalf("parallelism %d: error %v, want one tuple over the node budget", par, err)
		}
		if len(outs) != 2 || outs[0].Index != 0 || outs[1].Index != 2 {
			t.Fatalf("parallelism %d: got %d outcomes %v, want tuples 0 and 2", par, len(outs), outs)
		}
		for _, o := range outs {
			w := ref[o.Index]
			if o.Confidence != w.Confidence || !o.AggDists[0].Equal(w.AggDists[0], 0) {
				t.Errorf("parallelism %d tuple %d: %v %v, want %v %v", par, o.Index, o.Confidence, o.AggDists[0], w.Confidence, w.AggDists[0])
			}
		}
	}
}

// TestExecOptionValidation: contradictory option combinations are
// rejected with descriptive errors instead of silently picking a
// semantics, and every step-II setting has one spelling: WithApprox
// carries non-negative budgets only, and each other field of
// ApproxOptions is rejected with the name of the option that sets it.
// Rows marked expr run through ExecExpr, which rejects the options that
// only a plan execution reads.
func TestExecOptionValidation(t *testing.T) {
	db, plan := execTestDB(t)
	reg := pvcagg.NewRegistry()
	reg.DeclareBool("x", 0.5)
	x := pvcagg.MustParseExpr("x")
	cases := []struct {
		name string
		opts []pvcagg.Option
		want string
		expr bool
	}{
		{"exact+eps", []pvcagg.Option{pvcagg.WithMode(pvcagg.Exact), pvcagg.WithEps(0.1)}, "WithEps conflicts with WithMode(Exact)", false},
		{"exact+approx", []pvcagg.Option{pvcagg.WithMode(pvcagg.Exact), pvcagg.WithApprox(pvcagg.ApproxOptions{Eps: 0.1})}, "WithApprox conflicts", false},
		{"eps-range", []pvcagg.Option{pvcagg.WithEps(1.5)}, "out of range", false},
		{"eps-negative", []pvcagg.Option{pvcagg.WithEps(-0.1)}, "out of range", false},
		{"approx-eps", []pvcagg.Option{pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithApprox(pvcagg.ApproxOptions{Eps: 0.2})}, "WithEps", false},
		// ε = 0 ("exact, please") plus a budget that can abandon
		// convergence is a hard error.
		{"anytime-eps0-budget", []pvcagg.Option{pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(0), pvcagg.WithApprox(pvcagg.ApproxOptions{MaxNodes: 100})}, "contradictory anytime options", false},
		{"auto-eps0", []pvcagg.Option{pvcagg.WithEps(0)}, "disables the anytime fallback", false},
		{"sample-noseed", []pvcagg.Option{pvcagg.WithMode(pvcagg.Sample)}, "requires an explicit WithSeed", false},
		{"sample+eps", []pvcagg.Option{pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(1), pvcagg.WithEps(0.1)}, "WithEps conflicts with WithMode(Sample)", false},
		{"sample-bad-n", []pvcagg.Option{pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(1), pvcagg.WithSamples(0)}, "must be positive", false},
		{"seed-wrong-mode", []pvcagg.Option{pvcagg.WithMode(pvcagg.Exact), pvcagg.WithSeed(1)}, "WithSeed only applies", false},
		{"samples-wrong-mode", []pvcagg.Option{pvcagg.WithSamples(100)}, "WithSamples only applies", false},
		{"bad-timeout", []pvcagg.Option{pvcagg.WithTimeout(-time.Second)}, "must be positive", false},
		{"approx-negative-leaf", []pvcagg.Option{pvcagg.WithApprox(pvcagg.ApproxOptions{MaxLeafNodes: -1})}, "MaxLeafNodes must be non-negative", false},
		{"approx-negative-expansions", []pvcagg.Option{pvcagg.WithApprox(pvcagg.ApproxOptions{MaxExpansions: -1})}, "MaxExpansions must be non-negative", false},
		{"approx-negative-nodes", []pvcagg.Option{pvcagg.WithApprox(pvcagg.ApproxOptions{MaxNodes: -1})}, "MaxNodes must be non-negative", false},
		{"approx-negative-timeout", []pvcagg.Option{pvcagg.WithApprox(pvcagg.ApproxOptions{Timeout: -time.Second})}, "Timeout must be non-negative", false},
		{"expr-trace", []pvcagg.Option{pvcagg.WithTrace(pvcagg.NewTrace())}, "WithTrace does not apply to ExecExpr", true},
		{"expr-retry", []pvcagg.Option{pvcagg.WithRetry(pvcagg.RetryPolicy{})}, "WithRetry does not apply to ExecExpr", true},
		{"expr-explain-analyze", []pvcagg.Option{pvcagg.WithExplainAnalyze()}, "WithExplainAnalyze does not apply to ExecExpr", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.expr {
				_, err = pvcagg.ExecExpr(context.Background(), x, reg, pvcagg.Boolean, tc.opts...)
			} else {
				_, err = pvcagg.Exec(context.Background(), db, plan, tc.opts...)
			}
			if err == nil {
				t.Fatalf("no error for %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err.Error(), tc.want)
			}
		})
	}

	// Anytime ε = 0 with *no* budgets asks for the exact answer, and runs
	// the exact strategy: the same confidences and distributions.
	res, outs := collect(t, db, plan, pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(0))
	if res.Strategy.Requested != pvcagg.Anytime || res.Strategy.Chosen != pvcagg.Exact {
		t.Errorf("anytime ε=0: strategy requested %v chosen %v, want Anytime and Exact", res.Strategy.Requested, res.Strategy.Chosen)
	}
	_, ref := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact))
	for i := range ref {
		if outs[i].Confidence != ref[i].Confidence {
			t.Errorf("tuple %d: anytime ε=0 %v != exact %v (bit-for-bit contract)", i, outs[i].Confidence, ref[i].Confidence)
		}
		for j := range ref[i].AggDists {
			if !outs[i].AggDists[j].Equal(ref[i].AggDists[j], 0) {
				t.Errorf("tuple %d agg %d: anytime ε=0 %v != exact %v", i, j, outs[i].AggDists[j], ref[i].AggDists[j])
			}
		}
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

// scanOf adds an already-evaluated relation to db as table name and
// returns the plan that scans it: step I hands its tuples on unchanged, so
// Exec over it runs step II alone, tuple i being rel's tuple i.
func scanOf(db *pvcagg.Database, rel *pvcagg.Relation, name string) pvcagg.Plan {
	t := pvcagg.NewRelation(name, rel.Schema)
	t.Tuples = rel.Tuples
	db.Add(t)
	return &pvcagg.Scan{Table: name}
}

// TestExecTable: Exec over a Scan of a plan's evaluated relation matches
// Exec on the plan itself, exactly and under Anytime.
func TestExecTable(t *testing.T) {
	db, plan := execTestDB(t)
	res, want := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact))
	scan := scanOf(db, res.Rel, "T")

	_, got := collect(t, db, scan, pvcagg.WithMode(pvcagg.Exact))
	if len(got) != len(want) {
		t.Fatalf("%d outcomes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Tuple.Key() != want[i].Tuple.Key() || got[i].Confidence != want[i].Confidence {
			t.Errorf("tuple %d: %q %v != %q %v", i, got[i].Tuple.Key(), got[i].Confidence, want[i].Tuple.Key(), want[i].Confidence)
		}
	}

	_, aouts := collect(t, db, scan, pvcagg.WithMode(pvcagg.Anytime))
	for i := range want {
		if !aouts[i].Confidence.Contains(want[i].Confidence.Lo, 1e-12) {
			t.Errorf("tuple %d: anytime bounds %v miss exact %v", i, aouts[i].Confidence, want[i].Confidence.Lo)
		}
	}
}

// TestExecExprAutoModuleNoProbe: Auto's node bound exists to hand a
// semiring expression to the anytime engine, which a semimodule
// expression does not have; one whose d-tree exceeds the bound of its
// weight runs exactly under Auto, as it does under Exact, while the
// comparison over it goes to the anytime engine.
func TestExecExprAutoModuleNoProbe(t *testing.T) {
	inst := gen.MustNew(gen.Params{
		L: 12, NumVars: 12, NumClauses: 2, NumLiterals: 2,
		MaxV: 20, AggL: algebra.Sum, Theta: value.LE, C: 100, Seed: 1,
	})
	m := inst.Expr.(expr.Cmp).L
	res, err := pvcagg.ExecExpr(context.Background(), m, inst.Registry, pvcagg.Boolean)
	if err != nil {
		t.Fatal(err)
	}
	if n, bound := res.Report.Compile.Nodes, engine.NodeBound(engine.Weight(m, inst.Registry)); n <= bound {
		t.Fatalf("d-tree has %d nodes, within its node bound %d: the instance no longer tests it", n, bound)
	}
	if res.Strategy.Chosen != pvcagg.Exact || math.Abs(res.Dist.Mass()-1) > 1e-9 {
		t.Errorf("Auto chose %v, distribution mass %v; want Exact and 1", res.Strategy.Chosen, res.Dist.Mass())
	}
	exact, err := pvcagg.ExecExpr(context.Background(), inst.Expr, inst.Registry, pvcagg.Boolean, pvcagg.WithMode(pvcagg.Exact))
	if err != nil {
		t.Fatal(err)
	}
	if n, bound := exact.Report.Compile.Nodes, engine.NodeBound(engine.Weight(inst.Expr, inst.Registry)); n <= bound {
		t.Fatalf("comparison's d-tree has %d nodes, within its node bound %d", n, bound)
	}
	cmp, err := pvcagg.ExecExpr(context.Background(), inst.Expr, inst.Registry, pvcagg.Boolean)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Strategy.Chosen != pvcagg.Anytime || cmp.Approx == nil || !cmp.Confidence.Contains(exact.Confidence.Lo, 1e-12) {
		t.Errorf("Auto on the comparison: %v %v, want Anytime bounds around %v", cmp.Strategy, cmp.Confidence, exact.Confidence.Lo)
	}
}

// TestExecSampleSeedContract: ExecExpr under Sample draws from the stream
// seeded WithSeed itself, so its distribution is worlds.MonteCarloCtx's
// from a generator seeded so, bit for bit, and it is the dispatch Exec
// runs for tuple 0.
func TestExecSampleSeedContract(t *testing.T) {
	ctx := context.Background()
	db, plan := execTestDB(t)
	res, _ := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact))
	const seed, n = 11, 3000
	_, outs := collect(t, db, scanOf(db, res.Rel, "T"), pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(seed), pvcagg.WithSamples(n))
	tup := res.Rel.Tuples[0]
	col, err := tup.Cells[res.Rel.Schema.ModuleColumns()[0]].ModuleExpr()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range []pvcagg.Expr{tup.Ann, col} {
		got, err := pvcagg.ExecExpr(ctx, e, db.Registry, db.Kind, pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(seed), pvcagg.WithSamples(n))
		if err != nil {
			t.Fatal(err)
		}
		want, err := worlds.MonteCarloCtx(ctx, e, db.Registry, db.Semiring(), n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Dist.Equal(want, 0) {
			t.Errorf("%s: ExecExpr %v != MonteCarloCtx %v", e.Kind(), got.Dist, want)
		}
		if i == 0 && got.Confidence != outs[0].Confidence {
			t.Errorf("ExecExpr confidence %v != Exec tuple 0 %v", got.Confidence, outs[0].Confidence)
		}
	}
}

// TestExecExpr: the expression-level entrypoint across modes, including
// Auto's exact-within-the-bound-then-anytime fallback.
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
	if auto.Strategy.Chosen != pvcagg.Exact || auto.Approx != nil {
		t.Errorf("Auto on a tiny expression chose %v, want Exact (within its node bound)", auto.Strategy.Chosen)
	}
	if auto.Confidence != exact.Confidence || auto.Report.Compile != exact.Report.Compile {
		t.Errorf("auto %v %+v != exact %v %+v", auto.Confidence, auto.Report.Compile, exact.Confidence, exact.Report.Compile)
	}

	// A compile budget of 1 node replaces the node bound and forces
	// Auto's anytime fallback.
	fb, err := pvcagg.ExecExpr(ctx, e, reg, pvcagg.Boolean, pvcagg.WithCompileBudget(1), pvcagg.WithEps(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if fb.Strategy.Chosen != pvcagg.Anytime || fb.Strategy.Eps != 0.01 || fb.Approx == nil {
		t.Errorf("Auto with a 1-node budget chose %v (ε %v), want the Anytime fallback at ε 0.01", fb.Strategy.Chosen, fb.Strategy.Eps)
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
	// It has no truth value: every strategy that accepts it leaves the
	// confidence zero.
	for _, opts := range [][]pvcagg.Option{nil, {pvcagg.WithMode(pvcagg.Exact)},
		{pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(1), pvcagg.WithSamples(100)}} {
		res, err := pvcagg.ExecExpr(ctx, m, reg, pvcagg.Boolean, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Confidence != (pvcagg.Bounds{}) {
			t.Errorf("%v on a module expression: confidence %v, want none", res.Strategy, res.Confidence)
		}
	}
	if _, err := pvcagg.ExecExpr(ctx, m, reg, pvcagg.Boolean, pvcagg.WithMode(pvcagg.Anytime)); err == nil {
		t.Error("Anytime on a module expression: want error")
	}
}
