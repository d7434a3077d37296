package pvcagg_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pvcagg"
	"pvcagg/internal/expr"
	"pvcagg/internal/tpch"
)

// Facade-level observability: trace determinism across parallelism, and
// the EXPLAIN ANALYZE golden over TPC-H Q1.

// normalizeSpans renders a span tree down to what must be
// deterministic: names and structure. Durations vary run to run.
func normalizeSpans(spans []pvcagg.SpanView) string {
	var b strings.Builder
	var walk func(s pvcagg.SpanView, depth int)
	walk = func(s pvcagg.SpanView, depth int) {
		fmt.Fprintf(&b, "%*s%s\n", 2*depth, "", s.Name)
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	for _, s := range spans {
		walk(s, 0)
	}
	return b.String()
}

// TestTraceDeterminism: the span tree — names and nesting — and the
// query's counters are identical at Parallelism 1 and 4, because the
// counters are order-independent sums. Only wall time may differ.
func TestTraceDeterminism(t *testing.T) {
	db, _ := execTestDB(t)
	const q = "SELECT k, COUNT(*) AS n FROM R GROUP BY k"
	var got [2]string
	var counters [2]pvcagg.Counters
	for i, par := range []int{1, 4} {
		tr := pvcagg.NewTrace()
		res, err := pvcagg.ExecQuery(context.Background(), db, q,
			pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(par), pvcagg.WithTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.Collect(); err != nil {
			t.Fatal(err)
		}
		if res.Report.Trace != tr {
			t.Fatal("ExecReport.Trace is not the WithTrace pointer")
		}
		got[i] = normalizeSpans(tr.Spans())
		counters[i] = res.Report.Counters
	}
	if got[0] != got[1] {
		t.Errorf("trace differs between Parallelism 1 and 4:\n--- p=1\n%s--- p=4\n%s", got[0], got[1])
	}
	if counters[0] != counters[1] {
		t.Errorf("counters differ between Parallelism 1 and 4: %+v and %+v", counters[0], counters[1])
	}
	// And it contains the stage spans, nested.
	if want := "parse\nbind\noptimize\nexec\n  eval\n  probability\n"; got[0] != want {
		t.Errorf("normalized trace\n%swant\n%s", got[0], want)
	}
	if c := counters[0]; c.Rows != 3 || c.Tuples != 3 || c.Exact.Compile.Nodes == 0 {
		t.Errorf("counters %+v, want 3 rows and tuples and some d-tree nodes", c)
	}
}

// TestTraceOffIsAbsent: without WithTrace, no trace is reported.
func TestTraceOffIsAbsent(t *testing.T) {
	db, plan := execTestDB(t)
	res, err := pvcagg.Exec(context.Background(), db, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Collect(); err != nil {
		t.Fatal(err)
	}
	if res.Report.Trace != nil {
		t.Error("Report.Trace non-nil without WithTrace")
	}
	if res.Report.Explain != nil {
		t.Error("Report.Explain non-nil without WithExplainAnalyze")
	}
}

// TestTupleReportFoldsColumns: a tuple's exact report, and with it the
// query's counters, counts every compile counter of its aggregation
// columns, not only their d-tree nodes.
func TestTupleReportFoldsColumns(t *testing.T) {
	inst, err := pvcagg.Generate(pvcagg.GenParams{L: 12, NumVars: 8, NumClauses: 2, NumLiterals: 2,
		MaxV: 5, AggL: pvcagg.SUM, Theta: pvcagg.LE, C: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	col := inst.Expr.(expr.Cmp).L
	alone, err := pvcagg.ExecExpr(context.Background(), col, inst.Registry, pvcagg.Boolean, pvcagg.WithMode(pvcagg.Exact))
	if err != nil {
		t.Fatal(err)
	}
	if c := alone.Report.Compile; c.CacheHits == 0 || c.Shannon == 0 {
		t.Fatalf("column compiles with %+v; the test needs memo hits and Shannon expansions", c)
	}
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	db.Registry = inst.Registry
	rel := pvcagg.NewRelation("R", pvcagg.Schema{{Name: "s", Type: pvcagg.TModule}})
	rel.MustInsert(pvcagg.MustParseExpr("1"), pvcagg.ExprCell(col))
	db.Add(rel)
	res, err := pvcagg.Exec(context.Background(), db, &pvcagg.Scan{Table: "R"}, pvcagg.WithMode(pvcagg.Exact))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	got, want := outs[0].Report.Exact.Compile, alone.Report.Compile
	want.Nodes++ // the annotation's one constant leaf
	if got != want {
		t.Errorf("tuple report %+v, want the column's %+v plus one node", got, want)
	}
	if c := res.Report.Counters.Exact.Compile; c != want {
		t.Errorf("query counters %+v, want the tuple's %+v", c, want)
	}
}

// TestExplainAnalyzeGoldenTPCHQ1 pins the per-operator actual row
// counts of TPC-H Q1 (SF 0.0005, seed 1) against cardinalities computed
// independently from the generated data: the scan sees every lineitem row, the σ passes exactly the
// rows with l_shipdate ≤ 1200, and the aggregation yields one row per
// (l_returnflag, l_linestatus) group among them.
func TestExplainAnalyzeGoldenTPCHQ1(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{SF: 0.0005, Seed: 1, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.Relation("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	shipdateIdx, flagIdx, statusIdx := -1, -1, -1
	for i, c := range rel.Schema {
		switch c.Name {
		case "l_shipdate":
			shipdateIdx = i
		case "l_returnflag":
			flagIdx = i
		case "l_linestatus":
			statusIdx = i
		}
	}
	if shipdateIdx < 0 || flagIdx < 0 || statusIdx < 0 {
		t.Fatalf("lineitem schema lacks Q1 columns: %v", rel.Schema)
	}
	total := int64(rel.Len())
	var filtered int64
	groups := map[string]bool{}
	for _, tu := range rel.Tuples {
		if v := tu.Cells[shipdateIdx].Value(); v.IsInt() && v.Int64() <= 1200 {
			filtered++
			groups[tu.Cells[flagIdx].String()+"|"+tu.Cells[statusIdx].String()] = true
		}
	}
	if total == 0 || filtered == 0 || filtered == total || len(groups) == 0 {
		t.Fatalf("degenerate golden inputs: total=%d filtered=%d groups=%d", total, filtered, len(groups))
	}

	res, err := pvcagg.Exec(context.Background(), db, tpch.Q1(1200),
		pvcagg.WithMode(pvcagg.Exact), pvcagg.WithExplainAnalyze())
	if err != nil {
		t.Fatal(err)
	}
	outs, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Report.Explain
	if ex == nil {
		t.Fatal("no Explain tree")
	}
	// Shape: $ → σ → scan(lineitem).
	if ex.Op != "$" || len(ex.Children) != 1 {
		t.Fatalf("root %q with %d children, want $ with 1", ex.Op, len(ex.Children))
	}
	sel := ex.Children[0]
	if sel.Op != "σ" || len(sel.Children) != 1 {
		t.Fatalf("mid %q with %d children, want σ with 1", sel.Op, len(sel.Children))
	}
	scan := sel.Children[0]
	if scan.Op != "scan" || scan.Name != "lineitem" {
		t.Fatalf("leaf %s(%s), want scan(lineitem)", scan.Op, scan.Name)
	}
	if got, want := ex.ActualRows, int64(len(groups)); got != want {
		t.Errorf("$ actual=%d, want %d groups", got, want)
	}
	if int64(len(outs)) != ex.ActualRows {
		t.Errorf("%d result tuples but root actual=%d", len(outs), ex.ActualRows)
	}
	if sel.ActualRows != filtered {
		t.Errorf("σ actual=%d, want %d (l_shipdate ≤ 1200)", sel.ActualRows, filtered)
	}
	if scan.ActualRows != total {
		t.Errorf("scan actual=%d, want %d lineitem rows", scan.ActualRows, total)
	}
	if scan.RowsBound != total {
		t.Errorf("scan rows≤%d, want its %d rows", scan.RowsBound, total)
	}
	for _, n := range []*pvcagg.ExplainNode{ex, sel, scan} {
		if n.TimeUS < 0 {
			t.Errorf("%s has negative time %dµs", n.Op, n.TimeUS)
		}
	}
}

// TestExecQueryExplainPrefix: the EXPLAIN prefix through the text
// frontend returns the tree with row bounds without executing.
func TestExecQueryExplainPrefix(t *testing.T) {
	db, _ := execTestDB(t)
	res, err := pvcagg.ExecQuery(context.Background(), db, "EXPLAIN SELECT k, COUNT(*) AS n FROM R GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Errorf("EXPLAIN executed: %d tuples", len(outs))
	}
	ex := res.Report.Explain
	if ex == nil {
		t.Fatal("EXPLAIN returned no tree")
	}
	if ex.ActualRows != -1 {
		t.Errorf("EXPLAIN root actual=%d, want -1 (not executed)", ex.ActualRows)
	}
}
