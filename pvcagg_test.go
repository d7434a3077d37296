package pvcagg_test

import (
	"context"
	"math"
	"testing"

	"pvcagg"
)

// The quick-start from the package documentation.
func TestQuickStart(t *testing.T) {
	reg := pvcagg.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("y", 0.5)
	p := pvcagg.NewPipeline(pvcagg.Boolean, reg)
	e := pvcagg.MustParseExpr("[min(x @min 10, y @min 20) <= 15]")
	d, rep, err := p.Distribution(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.P(pvcagg.BoolV(true)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P[⊤] = %v, want 0.5 (y is pruned)", got)
	}
	if rep.Tree.Nodes == 0 {
		t.Errorf("report empty")
	}
}

func TestFacadeDatabaseRoundTrip(t *testing.T) {
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	r := pvcagg.NewRelation("R", pvcagg.Schema{
		{Name: "k", Type: pvcagg.TValue},
		{Name: "v", Type: pvcagg.TValue},
	})
	for i := int64(0); i < 4; i++ {
		if _, err := db.InsertIndependent(r, 0.5, pvcagg.IntCell(i%2), pvcagg.IntCell(10*i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Add(r)
	plan := &pvcagg.GroupAgg{
		Input:   &pvcagg.Scan{Table: "R"},
		GroupBy: []string{"k"},
		Aggs:    []pvcagg.AggSpec{{Out: "total", Agg: pvcagg.SUM, Over: "v"}},
	}
	res, results := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact))
	if res.Len() != 2 || len(results) != 2 {
		t.Fatalf("result size %d", res.Len())
	}
	for _, out := range results {
		if math.Abs(out.Confidence.Lo-0.75) > 1e-12 || out.Confidence.Width() != 0 {
			t.Errorf("confidence = %v, want [0.75, 0.75]", out.Confidence)
		}
	}
	if res.Timing.Construct <= 0 {
		t.Errorf("timing missing")
	}
	v := pvcagg.Classify(plan, db)
	if v.Class != pvcagg.Qhie {
		t.Errorf("classification = %v (%s), want Qhie", v.Class, v.Reason)
	}
}

func TestFacadeBaselinesAgree(t *testing.T) {
	reg := pvcagg.NewRegistry()
	reg.DeclareBool("a", 0.3)
	reg.DeclareBool("b", 0.6)
	e := pvcagg.MustParseExpr("a*b + a")
	exact, err := pvcagg.Enumerate(e, reg, pvcagg.Boolean)
	if err != nil {
		t.Fatal(err)
	}
	p := pvcagg.NewPipeline(pvcagg.Boolean, reg)
	compiled, _, err := p.Distribution(e)
	if err != nil {
		t.Fatal(err)
	}
	if !compiled.Equal(exact, 1e-12) {
		t.Errorf("pipeline %v vs enumeration %v", compiled, exact)
	}
	mc, err := pvcagg.MonteCarlo(e, reg, pvcagg.Boolean, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !mc.Equal(exact, 0.02) {
		t.Errorf("Monte Carlo too far: %v vs %v", mc, exact)
	}
}

// The "Parallel execution" example from the package documentation:
// WithParallelism(4) returns the same probabilities as the sequential
// run.
func TestFacadeParallel(t *testing.T) {
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	r := pvcagg.NewRelation("R", pvcagg.Schema{
		{Name: "a", Type: pvcagg.TValue},
		{Name: "b", Type: pvcagg.TValue},
	})
	for i := int64(0); i < 6; i++ {
		db.Registry.DeclareBool(
			r.Name+"_v"+string(rune('a'+i)), 0.5)
		r.MustInsert(pvcagg.MustParseExpr(r.Name+"_v"+string(rune('a'+i))),
			pvcagg.IntCell(i%2), pvcagg.IntCell(i*10))
	}
	db.Add(r)
	plan := &pvcagg.GroupAgg{
		Input:   &pvcagg.Scan{Table: "R"},
		GroupBy: []string{"a"},
		Aggs:    []pvcagg.AggSpec{{Out: "S", Agg: pvcagg.SUM, Over: "b"}},
	}
	_, seqRes := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(1))
	_, parRes := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(4))
	if len(parRes) != len(seqRes) {
		t.Fatalf("%d parallel results, want %d", len(parRes), len(seqRes))
	}
	for i := range seqRes {
		if parRes[i].Confidence != seqRes[i].Confidence {
			t.Errorf("tuple %d: confidence %v != %v", i, parRes[i].Confidence, seqRes[i].Confidence)
		}
		for j := range seqRes[i].AggDists {
			if !parRes[i].AggDists[j].Equal(seqRes[i].AggDists[j], 1e-12) {
				t.Errorf("tuple %d agg %d: %v != %v", i, j, parRes[i].AggDists[j], seqRes[i].AggDists[j])
			}
		}
	}
}

// The "Approximate computation" example from the package documentation:
// anytime bounds bracket the exact probability, end to end.
func TestFacadeApproximate(t *testing.T) {
	reg := pvcagg.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("y", 0.5)
	e := pvcagg.MustParseExpr("[min(x @min 10, y @min 20) <= 15]")
	res, err := pvcagg.ExecExpr(context.Background(), e, reg, pvcagg.Boolean,
		pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if b := res.Confidence; !b.Contains(0.5, 1e-12) {
		t.Errorf("bounds %v do not contain the exact probability 0.5", b)
	}
	if b := res.Confidence; !res.Approx.Converged || b.Width() > 0.01 {
		t.Errorf("not converged to width ≤ 0.01: %v (converged=%v)", b, res.Approx.Converged)
	}

	db := pvcagg.NewDatabase(pvcagg.Boolean)
	r := pvcagg.NewRelation("R", pvcagg.Schema{
		{Name: "k", Type: pvcagg.TValue},
		{Name: "v", Type: pvcagg.TValue},
	})
	for i := int64(0); i < 4; i++ {
		if _, err := db.InsertIndependent(r, 0.5, pvcagg.IntCell(i%2), pvcagg.IntCell(10*i)); err != nil {
			t.Fatal(err)
		}
	}
	db.Add(r)
	plan := &pvcagg.GroupAgg{
		Input:   &pvcagg.Scan{Table: "R"},
		GroupBy: []string{"k"},
		Aggs:    []pvcagg.AggSpec{{Out: "total", Agg: pvcagg.SUM, Over: "v"}},
	}
	_, exact := collect(t, db, plan, pvcagg.WithMode(pvcagg.Exact))
	_, approx := collect(t, db, plan, pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(0.05), pvcagg.WithParallelism(2))
	if len(approx) != len(exact) {
		t.Fatalf("%d approx results, want %d", len(approx), len(exact))
	}
	for i := range exact {
		if !approx[i].Confidence.Contains(exact[i].Confidence.Lo, 1e-12) {
			t.Errorf("tuple %d: exact confidence %v outside bounds %v",
				i, exact[i].Confidence, approx[i].Confidence)
		}
		if approx[i].Confidence.Width() > 0.05 {
			t.Errorf("tuple %d: width %v > eps", i, approx[i].Confidence.Width())
		}
	}
}

func TestFacadeGenerator(t *testing.T) {
	inst, err := pvcagg.Generate(pvcagg.GenParams{
		L: 4, NumVars: 5, NumClauses: 2, NumLiterals: 2,
		MaxV: 10, AggL: pvcagg.MIN, Theta: pvcagg.LE, C: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := pvcagg.NewPipeline(pvcagg.Boolean, inst.Registry)
	if _, _, err := p.Distribution(inst.Expr); err != nil {
		t.Fatal(err)
	}
}
