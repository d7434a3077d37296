package pvcagg_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pvcagg"
	"pvcagg/internal/gen"
	"pvcagg/internal/tpch"
)

// This file is the PVQL acceptance suite: the two paper queries (TPC-H
// Q1 and Figure 1 Q2) expressed in PVQL must produce bit-for-bit
// identical Results — confidences, aggregation distributions and
// strategies — to their hand-built engine.Plan equivalents.

const tpchQ1PVQL = `
  SELECT l_returnflag, l_linestatus, COUNT(*) AS count_order
  FROM lineitem
  WHERE l_shipdate <= 1200
  GROUP BY l_returnflag, l_linestatus`

const figure1Q2PVQL = `
  SELECT shop FROM (
    SELECT shop, MAX(price) AS P FROM (
      SELECT shop, price FROM S JOIN PS JOIN (SELECT * FROM P1 UNION SELECT * FROM P2)
    ) GROUP BY shop
  ) WHERE P <= 50`

// assertSameResults runs both executions to completion and compares
// outcome-by-outcome at tolerance 0.
func assertSameResults(t *testing.T, want, got *pvcagg.Result) {
	t.Helper()
	if want.Strategy != got.Strategy {
		t.Fatalf("strategies differ: %v vs %v", want.Strategy, got.Strategy)
	}
	wOuts, err := want.Collect()
	if err != nil {
		t.Fatal(err)
	}
	gOuts, err := got.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(wOuts) != len(gOuts) {
		t.Fatalf("tuple counts differ: %d vs %d", len(wOuts), len(gOuts))
	}
	for i := range wOuts {
		if wOuts[i].Tuple.Key() != gOuts[i].Tuple.Key() {
			t.Fatalf("tuple %d differs: %s vs %s", i, wOuts[i].Tuple.Key(), gOuts[i].Tuple.Key())
		}
		if wOuts[i].Confidence != gOuts[i].Confidence {
			t.Fatalf("tuple %d confidence differs: %v vs %v", i, wOuts[i].Confidence, gOuts[i].Confidence)
		}
		if len(wOuts[i].AggDists) != len(gOuts[i].AggDists) {
			t.Fatalf("tuple %d aggregate count differs", i)
		}
		for j := range wOuts[i].AggDists {
			if !wOuts[i].AggDists[j].Equal(gOuts[i].AggDists[j], 0) {
				t.Fatalf("tuple %d aggregate %d differs:\n%v\n%v", i, j, wOuts[i].AggDists[j], gOuts[i].AggDists[j])
			}
		}
	}
}

func TestExecQueryTPCHQ1BitForBit(t *testing.T) {
	// p = 0.9 tuple marginals: non-dyadic floats, so this also pins that
	// the optimizer's rewrites on Q1 (predicate placement, scan pruning)
	// preserve the annotation expressions exactly, not just numerically.
	db, err := tpch.Generate(tpch.Config{SF: 0.001, Seed: 1, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, mode := range []pvcagg.Option{
		pvcagg.WithMode(pvcagg.Auto),
		pvcagg.WithMode(pvcagg.Exact),
	} {
		want, err := pvcagg.Exec(ctx, db, tpch.Q1(1200), mode)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pvcagg.ExecQuery(ctx, db, tpchQ1PVQL, mode)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, want, got)
	}
}

func TestExecQueryFigure1Q2BitForBit(t *testing.T) {
	db := gen.Figure1(0.5)
	ctx := context.Background()
	// Auto routes each tuple of Q2 by its own node bound, so the two
	// plans' answers agree only if the optimizer left Q2's annotation
	// expressions untouched; Anytime's bounds — expansion-order sensitive
	// — pin the same.
	for _, mode := range []pvcagg.Option{
		pvcagg.WithMode(pvcagg.Auto),
		pvcagg.WithMode(pvcagg.Exact),
		pvcagg.WithMode(pvcagg.Anytime),
	} {
		want, err := pvcagg.Exec(ctx, db, figure1Q2(), mode)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pvcagg.ExecQuery(ctx, db, figure1Q2PVQL, mode)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, want, got)
	}
	if bound := pvcagg.Explain(db, &pvcagg.Scan{Table: "PS"}).RowsBound; bound != 9 {
		t.Fatalf("Explain(PS).RowsBound = %d, want its 9 rows", bound)
	}
}

func TestExecQuerySampleMode(t *testing.T) {
	db := gen.Figure1(0.5)
	ctx := context.Background()
	want, err := pvcagg.Exec(ctx, db, figure1Q2(), pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(7), pvcagg.WithSamples(500))
	if err != nil {
		t.Fatal(err)
	}
	got, err := pvcagg.ExecQuery(ctx, db, figure1Q2PVQL, pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(7), pvcagg.WithSamples(500))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, want, got)
}

func TestExecQueryErrors(t *testing.T) {
	db := gen.Figure1(0.5)
	ctx := context.Background()
	for _, c := range []struct{ src, frag string }{
		{"SELECT", "expected a column"},
		{"SELECT * FROM missing", `unknown table "missing"`},
		{"SELECT nope FROM S", `unknown column "nope"`},
	} {
		_, err := pvcagg.ExecQuery(ctx, db, c.src)
		if err == nil {
			t.Fatalf("ExecQuery(%q) succeeded", c.src)
		}
		var qe *pvcagg.QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("ExecQuery(%q) returned %T, want *QueryError", c.src, err)
		}
		if !strings.Contains(qe.Msg, c.frag) {
			t.Fatalf("ExecQuery(%q) = %q, want %q", c.src, qe.Msg, c.frag)
		}
		if r := qe.Render(c.src); !strings.Contains(r, "^") {
			t.Fatalf("Render missing caret: %q", r)
		}
	}
}

// TestParseQueryConcurrent: the query service parses, binds and optimizes
// the same PVQL text from many goroutines against one database (a cold
// plan-cache stampede). Each goroutine must produce the same optimized
// plan with no data race — run under -race in the service CI job.
func TestParseQueryConcurrent(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{SF: 0.0005, Seed: 1, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := pvcagg.ParseQuery(db, tpchQ1PVQL)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				p, _, err := pvcagg.ParseQuery(db, tpchQ1PVQL)
				if err != nil {
					errs <- err
					return
				}
				if p.String() != want.String() {
					errs <- fmt.Errorf("optimized plan differs across goroutines:\n%s\n%s", p, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
