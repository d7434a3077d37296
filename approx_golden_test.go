// Golden tests for the anytime approximate engine on the paper's two
// reference workloads: the Figure 1 running-example query Q2 and TPC-H Q1.
// The expected bound widths and node/expansion counts pin down the
// priority-frontier heuristic and the closure budgets — a behavioural
// change that silently widens bounds or expands more of the d-tree fails
// here. All Figure 1 probabilities are dyadic rationals (every marginal is
// 0.5), so the expected values are exact floats.
package pvcagg_test

import (
	"fmt"
	"math"
	"testing"

	"pvcagg"
	"pvcagg/internal/tpch"
)

// figure1ShopDB is the paper's Figure 1 database (also cmd/pvcrun's shop
// demo) with every tuple marginal p.
func figure1ShopDB(p float64) *pvcagg.Database {
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	s := pvcagg.NewRelation("S", pvcagg.Schema{
		{Name: "sid", Type: pvcagg.TValue},
		{Name: "shop", Type: pvcagg.TString},
	})
	for i, shop := range []string{"M&S", "M&S", "M&S", "Gap", "Gap"} {
		db.Registry.DeclareBool(fmt.Sprintf("x%d", i+1), p)
		s.MustInsert(pvcagg.MustParseExpr(fmt.Sprintf("x%d", i+1)),
			pvcagg.IntCell(int64(i+1)), pvcagg.StringCell(shop))
	}
	db.Add(s)
	ps := pvcagg.NewRelation("PS", pvcagg.Schema{
		{Name: "sid", Type: pvcagg.TValue},
		{Name: "pid", Type: pvcagg.TValue},
		{Name: "price", Type: pvcagg.TValue},
	})
	for _, row := range [][3]int64{
		{1, 1, 10}, {1, 2, 50}, {2, 1, 11}, {2, 2, 60}, {3, 3, 15},
		{3, 4, 40}, {4, 1, 15}, {4, 3, 60}, {5, 1, 10},
	} {
		v := fmt.Sprintf("y%d%d", row[0], row[1])
		db.Registry.DeclareBool(v, p)
		ps.MustInsert(pvcagg.MustParseExpr(v),
			pvcagg.IntCell(row[0]), pvcagg.IntCell(row[1]), pvcagg.IntCell(row[2]))
	}
	db.Add(ps)
	p1 := pvcagg.NewRelation("P1", pvcagg.Schema{
		{Name: "pid", Type: pvcagg.TValue},
		{Name: "weight", Type: pvcagg.TValue},
	})
	for i, row := range [][2]int64{{1, 4}, {2, 8}, {3, 7}, {4, 6}} {
		v := fmt.Sprintf("z%d", i+1)
		db.Registry.DeclareBool(v, p)
		p1.MustInsert(pvcagg.MustParseExpr(v), pvcagg.IntCell(row[0]), pvcagg.IntCell(row[1]))
	}
	db.Add(p1)
	p2 := pvcagg.NewRelation("P2", pvcagg.Schema{
		{Name: "pid", Type: pvcagg.TValue},
		{Name: "weight", Type: pvcagg.TValue},
	})
	db.Registry.DeclareBool("z5", p)
	p2.MustInsert(pvcagg.MustParseExpr("z5"), pvcagg.IntCell(1), pvcagg.IntCell(5))
	db.Add(p2)
	return db
}

// figure1Q2 is the running-example query Q2: shops whose most expensive
// offered product costs at most 50.
func figure1Q2() pvcagg.Plan {
	q1 := &pvcagg.Project{
		Cols: []string{"shop", "price"},
		Input: &pvcagg.Join{
			L: &pvcagg.Join{L: &pvcagg.Scan{Table: "S"}, R: &pvcagg.Scan{Table: "PS"}},
			R: &pvcagg.Union{L: &pvcagg.Scan{Table: "P1"}, R: &pvcagg.Scan{Table: "P2"}},
		},
	}
	return &pvcagg.Project{
		Cols: []string{"shop"},
		Input: &pvcagg.Select{
			Pred: pvcagg.Where(pvcagg.ColTheta("P", pvcagg.LE, pvcagg.IntCell(50))),
			Input: &pvcagg.GroupAgg{
				Input:   q1,
				GroupBy: []string{"shop"},
				Aggs:    []pvcagg.AggSpec{{Out: "P", Agg: pvcagg.MAX, Over: "price"}},
			},
		},
	}
}

// TestGoldenFigure1Approx pins the anytime engine's behaviour on Figure 1
// Q2 at ε ∈ {0, 0.01, 0.1}. MaxLeafNodes is deliberately tiny so the
// priority frontier does real work (the Gap/M&S annotations are otherwise
// closed exactly at the first probe).
func TestGoldenFigure1Approx(t *testing.T) {
	type tupleGold struct {
		lo, hi     float64
		expansions int
		treeNodes  int
		exactNodes int
	}
	golden := map[float64][]tupleGold{
		// Tuple 0 is ⟨Gap⟩, tuple 1 is ⟨M&S⟩ (results sort by key).
		// Regenerated when the anytime run got one compiler whose memo
		// outlives a closure attempt: an attempt that runs out of its 8
		// nodes is resumed by the next one instead of rebuilt, so leaves
		// close after a few Shannon expansions (Gap 15 → 3, M&S 92 → 11 at
		// ε = 0.01) and exactNodes counts the d-tree nodes evaluated. The
		// ε = 0 rows did not move; every interval contains them.
		0: {
			{lo: 0.26953125, hi: 0.26953125, expansions: 0, treeNodes: 0, exactNodes: 51},
			{lo: 0.44317626953125, hi: 0.44317626953125, expansions: 0, treeNodes: 0, exactNodes: 190},
		},
		0.01: {
			{lo: 0.26953125, hi: 0.26953125, expansions: 3, treeNodes: 7, exactNodes: 48},
			{lo: 0.44317626953125, hi: 0.44317626953125, expansions: 11, treeNodes: 23, exactNodes: 179},
		},
		0.1: {
			{lo: 0.26953125, hi: 0.26953125, expansions: 3, treeNodes: 7, exactNodes: 48},
			{lo: 0.40289306640625, hi: 0.46539306640625, expansions: 9, treeNodes: 19, exactNodes: 145},
		},
	}
	db := figure1ShopDB(0.5)
	for _, eps := range []float64{0, 0.01, 0.1} {
		_, results := collect(t, db, figure1Q2(), pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(eps),
			pvcagg.WithApprox(pvcagg.ApproxOptions{MaxLeafNodes: 8}), pvcagg.WithParallelism(1))
		want := golden[eps]
		if len(results) != len(want) {
			t.Fatalf("eps=%g: %d result tuples, want %d", eps, len(results), len(want))
		}
		for i, w := range want {
			r := results[i]
			if math.Abs(r.Confidence.Lo-w.lo) > 1e-12 || math.Abs(r.Confidence.Hi-w.hi) > 1e-12 {
				t.Errorf("eps=%g tuple %d: bounds %v, want [%.17g, %.17g]", eps, i, r.Confidence, w.lo, w.hi)
			}
			if eps > 0 && r.Confidence.Width() > eps {
				t.Errorf("eps=%g tuple %d: width %v exceeds eps", eps, i, r.Confidence.Width())
			}
			if exact := golden[0][i].lo; !r.Confidence.Contains(exact, 0) {
				t.Errorf("eps=%g tuple %d: bounds %v miss the exact answer %v", eps, i, r.Confidence, exact)
			}
			if r.Report.Approx.Expansions != w.expansions {
				t.Errorf("eps=%g tuple %d: %d expansions, want %d (frontier heuristic changed?)",
					eps, i, r.Report.Approx.Expansions, w.expansions)
			}
			if r.Report.Approx.TreeNodes != w.treeNodes || r.Report.Approx.ExactNodes != w.exactNodes {
				t.Errorf("eps=%g tuple %d: tree/exact nodes %d/%d, want %d/%d",
					eps, i, r.Report.Approx.TreeNodes, r.Report.Approx.ExactNodes, w.treeNodes, w.exactNodes)
			}
			if !r.Report.Approx.Converged {
				t.Errorf("eps=%g tuple %d: not converged", eps, i)
			}
		}
	}
}

// TestGoldenTPCHQ1Approx pins the anytime engine on TPC-H Q1 (SF 0.0005):
// every group annotation closes exactly within the default per-leaf
// budget, so all widths are 0 at every ε with no frontier expansion —
// Q1's hardness lives in its [SUM ≤ c] selection, which pruning caps.
func TestGoldenTPCHQ1Approx(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{SF: 0.0005, Seed: 1, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, 0.01, 0.1} {
		_, results := collect(t, db, tpch.Q1(1200),
			pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(eps), pvcagg.WithParallelism(1))
		if len(results) != 6 {
			t.Fatalf("eps=%g: %d result tuples, want 6", eps, len(results))
		}
		totalExact, totalExpansions := 0, 0
		for i, r := range results {
			if w := r.Confidence.Width(); w != 0 {
				t.Errorf("eps=%g tuple %d: width %v, want 0 (exact closure)", eps, i, w)
			}
			if !r.Report.Approx.Converged {
				t.Errorf("eps=%g tuple %d: not converged", eps, i)
			}
			totalExact += r.Report.Approx.ExactNodes
			totalExpansions += r.Report.Approx.Expansions
		}
		if totalExpansions != 0 {
			t.Errorf("eps=%g: %d frontier expansions, want 0", eps, totalExpansions)
		}
		if totalExact != 2790 {
			t.Errorf("eps=%g: %d closure d-tree nodes, want 2790", eps, totalExact)
		}
		if p := results[0].Confidence.Lo; math.Abs(p-1) > 1e-9 {
			t.Errorf("eps=%g: first tuple confidence %v, want ≈ 1", eps, p)
		}
	}
}
