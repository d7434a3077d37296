package pvcagg_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"pvcagg"
	"pvcagg/internal/tpch"
)

// storeQueries skip blocks of a 64-row-block lineitem: a point lookup
// and a range σ under a grouped COUNT.
var storeQueries = []string{
	"SELECT l_linenumber, l_quantity FROM lineitem WHERE l_orderkey = 17",
	"SELECT l_returnflag, COUNT(*) AS n FROM lineitem WHERE l_shipdate <= 100 GROUP BY l_returnflag",
}

// since is the I/O a store counted between two snapshots.
func since(now, then pvcagg.StoreMetrics) pvcagg.StoreMetrics {
	return pvcagg.StoreMetrics{
		BlocksRead: now.BlocksRead - then.BlocksRead, BlocksSkipped: now.BlocksSkipped - then.BlocksSkipped,
		BytesRead: now.BytesRead - then.BytesRead, BytesSkipped: now.BytesSkipped - then.BytesSkipped,
		RowsRead: now.RowsRead - then.RowsRead,
	}
}

// countersOf runs one execution to the end and returns its counters,
// after checking that they sum its outcomes.
func countersOf(t *testing.T, run func() (*pvcagg.Result, error)) pvcagg.Counters {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Error(err)
		return pvcagg.Counters{}
	}
	outs, err := res.Collect()
	if err != nil {
		t.Error(err)
		return pvcagg.Counters{}
	}
	c := res.Report.Counters
	var nodes, expansions, samples int
	for _, o := range outs {
		nodes += o.Report.Exact.Compile.Nodes
		if o.Report.Approx != nil {
			expansions += o.Report.Approx.Expansions
		}
		samples += o.Report.Samples
	}
	if c.Rows != res.Len() || c.Tuples != len(outs) || c.Exact.Compile.Nodes != nodes || c.Expansions != expansions || c.Samples != samples {
		t.Errorf("counters %+v do not sum %d rows' outcomes (nodes %d, expansions %d, samples %d)", c, res.Len(), nodes, expansions, samples)
	}
	return c
}

// TestExecCounters: Report.Counters is filled on every run and is the
// same with and without WithTrace and at Parallelism 1 and 4, over a
// store whose σ skips blocks and over a plan in memory under every
// strategy. Over the store, its I/O is the store's own delta around the
// lone query.
func TestExecCounters(t *testing.T) {
	ctx := context.Background()
	db, err := tpch.Generate(tpch.Config{SF: 0.002, Seed: 7, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	st := mirrorToStore(t, db, 64)
	// The first variant is the reference.
	variants := []struct {
		label string
		opts  []pvcagg.Option
	}{
		{"untraced p=1", []pvcagg.Option{pvcagg.WithParallelism(1)}},
		{"traced p=1", []pvcagg.Option{pvcagg.WithParallelism(1), pvcagg.WithTrace(pvcagg.NewTrace())}},
		{"untraced p=4", []pvcagg.Option{pvcagg.WithParallelism(4)}},
		{"traced p=4", []pvcagg.Option{pvcagg.WithParallelism(4), pvcagg.WithTrace(pvcagg.NewTrace())}},
	}
	for _, q := range storeQueries {
		var want pvcagg.Counters
		for i, v := range variants {
			before := st.Metrics()
			got := countersOf(t, func() (*pvcagg.Result, error) {
				return pvcagg.ExecQuery(ctx, nil, q, append(v.opts, pvcagg.WithStore(st))...)
			})
			if delta := since(st.Metrics(), before); got.Store != delta {
				t.Errorf("%s %s: counters' store part %+v, the store counted %+v", q, v.label, got.Store, delta)
			}
			if got.Store.BlocksSkipped == 0 || got.Store.RowsRead == 0 || got.Rows == 0 || got.Exact.Compile.Nodes == 0 {
				t.Errorf("%s %s: counters %+v skip no block or count nothing", q, v.label, got)
			}
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s %s: counters %+v, untraced p=1 %+v", q, v.label, got, want)
			}
		}
	}

	mem, plan := hardTestDB(t)
	for _, mode := range []struct {
		name string
		opts []pvcagg.Option
		set  func(pvcagg.Counters) bool
	}{
		{"exact", []pvcagg.Option{pvcagg.WithMode(pvcagg.Exact)}, func(c pvcagg.Counters) bool { return c.Exact.Eval.MaxDistSize > 0 }},
		{"anytime", []pvcagg.Option{pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(0.001), pvcagg.WithApprox(pvcagg.ApproxOptions{MaxLeafNodes: 2})},
			func(c pvcagg.Counters) bool { return c.Expansions > 0 }},
		{"sample", []pvcagg.Option{pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(3), pvcagg.WithSamples(100)},
			func(c pvcagg.Counters) bool { return c.Samples == 100*c.Tuples }},
	} {
		var want pvcagg.Counters
		for i, v := range variants {
			got := countersOf(t, func() (*pvcagg.Result, error) {
				return pvcagg.Exec(ctx, mem, plan, append(v.opts, mode.opts...)...)
			})
			if got.Store != (pvcagg.StoreMetrics{}) || got.Tuples == 0 || !mode.set(got) {
				t.Errorf("%s %s: counters %+v", mode.name, v.label, got)
			}
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s %s: counters %+v, untraced p=1 %+v", mode.name, v.label, got, want)
			}
		}
	}
}

// TestExecCountersConcurrent: two queries running at once over one store
// each report the counters of their solo runs, not a share of the
// store's totals.
func TestExecCountersConcurrent(t *testing.T) {
	ctx := context.Background()
	db, err := tpch.Generate(tpch.Config{SF: 0.002, Seed: 7, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	st := mirrorToStore(t, db, 64)
	run := func(q string) func() (*pvcagg.Result, error) {
		return func() (*pvcagg.Result, error) { return pvcagg.ExecQuery(ctx, nil, q, pvcagg.WithStore(st)) }
	}
	solo := make([]pvcagg.Counters, len(storeQueries))
	for i, q := range storeQueries {
		if solo[i] = countersOf(t, run(q)); solo[i].Store.RowsRead == 0 {
			t.Fatalf("%s: solo counters %+v read no row", q, solo[i])
		}
	}
	var wg sync.WaitGroup
	for i, q := range storeQueries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				if got := countersOf(t, run(q)); got != solo[i] {
					t.Errorf("%s: concurrent counters %+v, solo %+v", q, got, solo[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestExecPanicContained: step II has one panic containment, and every
// entry point runs under it. A sum of +∞ and −∞ panics in the
// convolution of its distribution; ExecExpr (under Auto and Exact),
// Joint and Average each return that panic as a *PanicError.
func TestExecPanicContained(t *testing.T) {
	ctx := context.Background()
	reg := pvcagg.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("y", 0.5)
	sum := pvcagg.MustParseExpr("sum(x @sum inf, y @sum -inf)")
	count := pvcagg.MustParseExpr("sum(x @sum 1, y @sum 1)")
	for name, run := range map[string]func() error{
		"ExecExpr Auto": func() error {
			_, err := pvcagg.ExecExpr(ctx, sum, reg, pvcagg.Boolean)
			return err
		},
		"ExecExpr Exact": func() error {
			_, err := pvcagg.ExecExpr(ctx, sum, reg, pvcagg.Boolean, pvcagg.WithMode(pvcagg.Exact))
			return err
		},
		"Joint": func() error {
			_, err := pvcagg.Joint(ctx, []pvcagg.Expr{sum, count}, reg, pvcagg.Boolean)
			return err
		},
		"Average": func() error {
			_, err := pvcagg.Average(ctx, sum, count, reg, pvcagg.Boolean)
			return err
		},
	} {
		if err := run(); !pvcagg.IsPanic(err) || !strings.Contains(err.Error(), "undefined") {
			t.Errorf("%s: err %v, want a contained panic naming the undefined sum", name, err)
		}
	}
}
