package pvcagg_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pvcagg"
	"pvcagg/internal/tpch"
)

// Facade-level observability: trace determinism across parallelism, and
// the EXPLAIN ANALYZE golden over TPC-H Q1.

// normalizeSpans renders a span tree down to what must be
// deterministic: names, structure, and counter attributes. Durations
// and allocation deltas vary run to run; the parallelism attribute is
// the independent variable of the determinism test.
func normalizeSpans(spans []pvcagg.SpanView) string {
	var b strings.Builder
	var walk func(s pvcagg.SpanView, depth int)
	walk = func(s pvcagg.SpanView, depth int) {
		fmt.Fprintf(&b, "%*s%s", 2*depth, "", s.Name)
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			if k != "parallelism" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, s.Attrs[k])
		}
		b.WriteByte('\n')
		for _, c := range s.Children {
			walk(c, depth+1)
		}
	}
	for _, s := range spans {
		walk(s, 0)
	}
	return b.String()
}

// TestTraceDeterminism: the span tree — names, nesting, and every
// counter attribute (memo hits, d-tree nodes, rows, tuples) — is
// identical at Parallelism 1 and 4, because all trace counters are
// order-independent sums. Only wall time and allocation may differ.
func TestTraceDeterminism(t *testing.T) {
	db, plan := execTestDB(t)
	const q = "SELECT k, COUNT(*) AS n FROM R GROUP BY k"
	_ = plan
	var got [2]string
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
	}
	if got[0] != got[1] {
		t.Errorf("trace differs between Parallelism 1 and 4:\n--- p=1\n%s--- p=4\n%s", got[0], got[1])
	}
	// And it contains the stage spans with live counters.
	for _, want := range []string{"parse\n", "bind\n", "optimize\n", "exec", "eval rows=", "probability", "tuples="} {
		if !strings.Contains(got[0], want) {
			t.Errorf("normalized trace lacks %q:\n%s", want, got[0])
		}
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
	if scan.EstRows != float64(total) {
		t.Errorf("scan est=%v, want %d (table statistics are exact)", scan.EstRows, total)
	}
	for _, n := range []*pvcagg.ExplainNode{ex, sel, scan} {
		if n.TimeUS < 0 {
			t.Errorf("%s has negative time %dµs", n.Op, n.TimeUS)
		}
	}
}

// TestExecQueryExplainPrefix: the EXPLAIN prefix through the text
// frontend returns the estimate-only tree without executing.
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
