package pvcagg_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"pvcagg"
	"pvcagg/internal/pvc/pvctest"
	"pvcagg/internal/server"
	"pvcagg/internal/store"
	"pvcagg/internal/tpch"
)

// mirrorToStore writes every relation of an in-memory database into a
// fresh store, sharing the database's variable registry, and opens it.
func mirrorToStore(t *testing.T, db *pvcagg.Database, capacity int) *pvcagg.Store {
	t.Helper()
	dir := t.TempDir()
	w, err := store.Create(dir, db.Kind, db.Registry, store.Options{BlockCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range db.Names() {
		rel, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		tw, err := w.CreateTable(name, rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range rel.Tuples {
			if err := tw.Append(tup.Ann, tup.Cells...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := pvcagg.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// outcomeKey renders one answer tuple with its confidence and aggregate
// expectations, for order-insensitive comparison.
func collectKeys(t *testing.T, res *pvcagg.Result) map[string]int {
	t.Helper()
	outs, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]int{}
	for _, o := range outs {
		key := fmt.Sprintf("%v lo=%.9g hi=%.9g", o.Tuple.Cells, o.Confidence.Lo, o.Confidence.Hi)
		for _, d := range o.AggDists {
			key += fmt.Sprintf(" E=%.9g", d.Expectation())
		}
		keys[key]++
	}
	return keys
}

// TestStoreMatchesInMemory is the storage differential: the same tuples
// queried through the in-memory path and through disk-backed block scans
// (with selection pushdown and block skipping active) must produce
// identical answers and identical probabilities.
func TestStoreMatchesInMemory(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{SF: 0.002, Seed: 7, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	st := mirrorToStore(t, db, 64) // small blocks: many skip decisions
	// The third backend lends and poisons its rows (pvctest.Lender): the
	// whole facade path — PVQL, optimizer, step I, step II — holds the
	// lent-row contract, not only the engine's own loops.
	lent := pvctest.LendingDatabase(db)
	queries := []string{
		"SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem WHERE l_shipdate <= 1200 GROUP BY l_returnflag, l_linestatus",
		"SELECT l_returnflag, COUNT(*) AS n FROM lineitem WHERE l_shipdate <= 100 GROUP BY l_returnflag",
		"SELECT o_orderkey, o_orderdate FROM orders WHERE o_orderkey = 17",
		"SELECT n_name, COUNT(*) AS suppliers FROM nation, supplier WHERE n_nationkey = s_nationkey GROUP BY n_name",
		"SELECT s_name FROM supplier WHERE s_suppkey <= 3",
		"SELECT p_mfgr, MAX(p_size) AS biggest FROM part GROUP BY p_mfgr",
	}
	for _, q := range queries {
		memRes, err := pvcagg.ExecQuery(context.Background(), db, q)
		if err != nil {
			t.Fatalf("%s (memory): %v", q, err)
		}
		stRes, err := pvcagg.ExecQuery(context.Background(), nil, q, pvcagg.WithStore(st))
		if err != nil {
			t.Fatalf("%s (store): %v", q, err)
		}
		lentRes, err := pvcagg.ExecQuery(context.Background(), lent, q)
		if err != nil {
			t.Fatalf("%s (lender): %v", q, err)
		}
		mem := collectKeys(t, memRes)
		for backend, got := range map[string]map[string]int{"store": collectKeys(t, stRes), "lender": collectKeys(t, lentRes)} {
			if len(mem) != len(got) {
				t.Fatalf("%s: %d answers in memory, %d from %s", q, len(mem), len(got), backend)
			}
			for k, n := range mem {
				if got[k] != n {
					t.Errorf("%s: answer %s ×%d in memory, ×%d from %s", q, k, n, got[k], backend)
				}
			}
		}
	}
	if m := st.Metrics(); m.BlocksSkipped == 0 {
		t.Errorf("differential ran without ever skipping a block: %+v", m)
	}
}

// TestStoreExplainAnalyzeReadsSameBlocks: EXPLAIN ANALYZE over a store
// runs the physical plan plain execution runs — σ pushed down through δ
// and a folded π̂, and discharged — so it reads and skips the same blocks,
// reads the same rows and returns the same answers.
func TestStoreExplainAnalyzeReadsSameBlocks(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{SF: 0.002, Seed: 7, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	st := mirrorToStore(t, db, 64)
	queries := []string{
		"SELECT l_linenumber, l_quantity FROM lineitem WHERE l_orderkey = 17",
		"SELECT l_returnflag, COUNT(*) AS n FROM lineitem WHERE l_shipdate <= 100 GROUP BY l_returnflag",
		"SELECT o_custkey, COUNT(*) AS n FROM (SELECT o_orderkey AS l_orderkey, o_custkey FROM orders WHERE o_orderkey <= 40) JOIN lineitem GROUP BY o_custkey",
	}
	for _, q := range queries {
		run := func(opts ...pvcagg.Option) (pvcagg.StoreMetrics, map[string]int) {
			before := st.Metrics()
			res, err := pvcagg.ExecQuery(context.Background(), nil, q, append(opts, pvcagg.WithStore(st))...)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			keys := collectKeys(t, res)
			return since(st.Metrics(), before), keys
		}
		plain, want := run()
		analyzed, got := run(pvcagg.WithExplainAnalyze())
		if plain.BlocksSkipped == 0 {
			t.Errorf("%s: the plain run skipped no block: %+v", q, plain)
		}
		if analyzed != plain {
			t.Errorf("%s: EXPLAIN ANALYZE store counters %+v, plain run %+v", q, analyzed, plain)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: EXPLAIN ANALYZE answers %v, plain run %v", q, got, want)
		}
	}
}

// TestStoreEmptyBuildSideReadsNoProbe: a ⋈ or × whose build side keeps
// no row returns nothing without pulling its probe side, so the probe
// table's scan reads no block; the query reads exactly the blocks its
// build side reads alone, and answers as the in-memory run does.
func TestStoreEmptyBuildSideReadsNoProbe(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{SF: 0.002, Seed: 7, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	st := mirrorToStore(t, db, 64)
	for _, c := range []struct{ query, build string }{
		{"SELECT o_custkey, COUNT(*) AS n FROM (SELECT o_orderkey AS l_orderkey, o_custkey FROM orders WHERE o_custkey <= 0) JOIN lineitem GROUP BY o_custkey",
			"SELECT o_orderkey, o_custkey FROM orders WHERE o_custkey <= 0"},
		{"SELECT n_name, COUNT(*) AS n FROM lineitem, (SELECT n_name FROM nation WHERE n_nationkey < 0) GROUP BY n_name",
			"SELECT n_name FROM nation WHERE n_nationkey < 0"},
	} {
		blocks := func(q string) (int64, map[string]int) {
			before := st.Metrics().BlocksRead
			res, err := pvcagg.ExecQuery(context.Background(), nil, q, pvcagg.WithStore(st))
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			keys := collectKeys(t, res)
			return st.Metrics().BlocksRead - before, keys
		}
		build, _ := blocks(c.build)
		all, got := blocks(c.query)
		if all != build {
			t.Errorf("%s: read %d blocks, its build side alone %d: the probe side read %d", c.query, all, build, all-build)
		}
		memRes, err := pvcagg.ExecQuery(context.Background(), db, c.query)
		if err != nil {
			t.Fatal(err)
		}
		if want := collectKeys(t, memRes); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: store answers %v, in memory %v", c.query, got, want)
		}
	}
}

// TestStoreStatsPinJoinOrder: the optimizer must pick the same plan
// whether a table's row bound comes from an in-memory relation's length
// or from the store manifest's row count, which are equal.
func TestStoreStatsPinJoinOrder(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{SF: 0.002, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st := mirrorToStore(t, db, 64)
	queries := []string{
		"SELECT s_name, n_name, r_name FROM supplier, nation, region WHERE s_nationkey = n_nationkey AND n_regionkey = r_regionkey",
		"SELECT n_name, COUNT(*) AS cnt FROM customer, nation, orders WHERE c_nationkey = n_nationkey AND o_custkey = c_custkey GROUP BY n_name",
		"SELECT p_mfgr FROM part, partsupp, supplier WHERE p_partkey = ps_partkey AND ps_suppkey = s_suppkey AND p_size <= 5",
	}
	for _, q := range queries {
		memPlan, _, err := pvcagg.ParseQuery(db, q)
		if err != nil {
			t.Fatalf("%s (memory): %v", q, err)
		}
		stPlan, _, err := pvcagg.ParseQuery(st.DB(), q)
		if err != nil {
			t.Fatalf("%s (store): %v", q, err)
		}
		if memPlan.String() != stPlan.String() {
			t.Errorf("%s:\n  memory plan: %s\n  store plan:  %s", q, memPlan, stPlan)
		}
	}
}

// TestStoreServerE2E drives the full stack — pvcimport-shaped streaming
// ingest, OpenStore, the HTTP query service — at TPC-H SF 0.01. CI's
// storage job runs it; -short skips the heavyweight ingest.
func TestStoreServerE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("SF 0.01 end-to-end ingest skipped in -short mode")
	}
	dir := t.TempDir()
	reg := pvcagg.NewRegistry()
	w, err := store.Create(dir, pvcagg.Boolean, reg, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tw *store.TableWriter
	if err := tpch.Stream(tpch.Config{SF: 0.01, Seed: 1, Probabilistic: true}, reg, storeSink{w, &tw}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := pvcagg.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(st.DB(), server.Config{Workers: 2}).Handler())
	defer srv.Close()
	body, _ := json.Marshal(map[string]any{
		"query": "SELECT l_returnflag, l_linestatus, COUNT(*) AS count_order FROM lineitem WHERE l_shipdate <= 1200 GROUP BY l_returnflag, l_linestatus",
	})
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Rows []struct {
			Cells []string `json:"cells"`
		} `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// Three return flags × two line statuses.
	if len(out.Rows) != 6 {
		t.Fatalf("got %d answer rows, want 6", len(out.Rows))
	}
	if m := st.Metrics(); m.BlocksSkipped == 0 || m.BlocksRead == 0 {
		t.Errorf("server query did not exercise block skipping: %+v", m)
	}
}

type storeSink struct {
	w  *store.Writer
	tw **store.TableWriter
}

func (s storeSink) Table(name string, schema pvcagg.Schema) error {
	tw, err := s.w.CreateTable(name, schema)
	*s.tw = tw
	return err
}

func (s storeSink) Row(ann pvcagg.Expr, cells ...pvcagg.Cell) error {
	return (*s.tw).Append(ann, cells...)
}

// TestExecSumOfOppositeInfinities: a SUM group that holds both +∞ and −∞
// has no sum in a world with both rows. Step I refuses it with an error
// matching ErrUndefined, never a panic, whether the rows are certain or
// carry variables, in memory and through a store; pvcd answers it as a
// client error.
func TestExecSumOfOppositeInfinities(t *testing.T) {
	const query = "SELECT a, SUM(w) AS s FROM W GROUP BY a"
	plan := &pvcagg.GroupAgg{Input: &pvcagg.Scan{Table: "W"}, GroupBy: []string{"a"},
		Aggs: []pvcagg.AggSpec{{Out: "s", Agg: pvcagg.SUM, Over: "w"}}}
	ctx := context.Background()
	for _, certain := range []bool{true, false} {
		db := pvcagg.NewDatabase(pvcagg.Boolean)
		rel := pvcagg.NewRelation("W", pvcagg.Schema{{Name: "a", Type: pvcagg.TValue}, {Name: "w", Type: pvcagg.TValue}})
		for _, w := range []pvcagg.V{pvcagg.PosInf(), pvcagg.NegInf()} {
			cells := []pvcagg.Cell{pvcagg.IntCell(1), pvcagg.ValueCell(w)}
			if certain {
				rel.MustInsert(pvcagg.MustParseExpr("1"), cells...)
			} else if _, err := db.InsertIndependent(rel, 0.5, cells...); err != nil {
				t.Fatal(err)
			}
		}
		db.Add(rel)
		st := mirrorToStore(t, db, 0)
		for name, run := range map[string]func() (*pvcagg.Result, error){
			"Exec":            func() (*pvcagg.Result, error) { return pvcagg.Exec(ctx, db, plan) },
			"ExecQuery":       func() (*pvcagg.Result, error) { return pvcagg.ExecQuery(ctx, db, query) },
			"ExecQuery store": func() (*pvcagg.Result, error) { return pvcagg.ExecQuery(ctx, nil, query, pvcagg.WithStore(st)) },
		} {
			if res, err := run(); !errors.Is(err, pvcagg.ErrUndefined) || pvcagg.IsPanic(err) {
				t.Errorf("certain=%v %s: result %v, err %v; want a step I error matching ErrUndefined", certain, name, res, err)
			}
		}
		srv := httptest.NewServer(server.New(db, server.Config{}).Handler())
		body, _ := json.Marshal(map[string]any{"query": query})
		resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("certain=%v pvcd: status %d, want %d", certain, resp.StatusCode, http.StatusUnprocessableEntity)
		}
	}
}

// TestStorePackedColumnsMatchInMemory is the storage differential over
// every block encoding: a store whose value columns are packed in some
// blocks (against negative bases and at width 0 too) and plain in others
// (±∞, a span past 2⁵⁶), and whose annotation blocks are all 1, all
// variables or mixed, answers $, π and σ queries exactly as the
// in-memory database does, with and without read-ahead.
func TestStorePackedColumnsMatchInMemory(t *testing.T) {
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	rel := pvcagg.NewRelation("M", pvcagg.Schema{{Name: "k", Type: pvcagg.TValue}, {Name: "v", Type: pvcagg.TValue},
		{Name: "w", Type: pvcagg.TValue}, {Name: "g", Type: pvcagg.TString}})
	// Blocks of 64 rows: a packed run long enough for whole 64-bit loads.
	const capacity = 64
	for i := range int64(12 * capacity) {
		b := i / capacity
		var v int64
		switch b % 3 {
		case 0:
			v = -1000 + i%5
		case 1:
			v = 1 << 60 // with −2⁶⁰ on odd rows: plain
			if i%2 == 1 {
				v = -v
			}
		case 2:
			v = 42 // constant: width 0
		}
		w := pvcagg.Int((i*7)%13 - 6)
		switch {
		case b == 4 && i%capacity == 1:
			w = pvcagg.PosInf()
		case b == 4 && i%capacity == 5, b == 7 && i%capacity == 2:
			w = pvcagg.NegInf()
		}
		cells := []pvcagg.Cell{pvcagg.IntCell(i), pvcagg.IntCell(v), pvcagg.ValueCell(w), pvcagg.StringCell([]string{"a", "b", "c"}[i%3])}
		if b%4 == 0 || (b%4 == 2 && i%2 == 0) {
			rel.MustInsert(pvcagg.MustParseExpr("1"), cells...)
		} else if _, err := db.InsertIndependent(rel, 0.25+float64(i%4)/8, cells...); err != nil {
			t.Fatal(err)
		}
	}
	db.Add(rel)
	st := mirrorToStore(t, db, capacity)
	matchesInMemory(t, db, st,
		"SELECT g, COUNT(*) AS n, SUM(k) AS s FROM M GROUP BY g",
		"SELECT g, MAX(w) AS hi, MIN(v) AS lo FROM M GROUP BY g",
		"SELECT g FROM M WHERE w >= 0",
		"SELECT v FROM M",
		"SELECT k, v, w FROM M WHERE v <= 42",
		"SELECT k, w FROM M WHERE k = 37",
	)
}

// TestStoreValueOnlyTableMatchesInMemory: a table of value columns only,
// one constant (packed at width 0, no payload) and one of 0s and 1s
// (width 1), every row annotated 1 (a one-byte segment), is written in
// blocks of fewer bytes than rows. Its scans must read every row back,
// and its answers must equal the in-memory ones.
func TestStoreValueOnlyTableMatchesInMemory(t *testing.T) {
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	rel := pvcagg.NewRelation("N", pvcagg.Schema{{Name: "c", Type: pvcagg.TValue}, {Name: "b", Type: pvcagg.TValue}})
	const capacity = 256
	for i := range int64(4*capacity + 10) {
		rel.MustInsert(pvcagg.MustParseExpr("1"), pvcagg.IntCell(7), pvcagg.IntCell(i%2))
	}
	db.Add(rel)
	matchesInMemory(t, db, mirrorToStore(t, db, capacity),
		"SELECT b, COUNT(*) AS n, SUM(c) AS s FROM N GROUP BY b",
		"SELECT COUNT(*) AS n FROM N WHERE b = 1",
		"SELECT c, b FROM N",
	)
}

// matchesInMemory runs each query over the in-memory database and over
// the store, at GOMAXPROCS 1 and 2, and fails on any answer that
// differs.
func matchesInMemory(t *testing.T, db *pvcagg.Database, st *pvcagg.Store, queries ...string) {
	t.Helper()
	ctx := context.Background()
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, q := range queries {
			memRes, err := pvcagg.ExecQuery(ctx, db, q)
			if err != nil {
				t.Fatalf("%s (memory): %v", q, err)
			}
			stRes, err := pvcagg.ExecQuery(ctx, nil, q, pvcagg.WithStore(st))
			if err != nil {
				t.Fatalf("%s (store): %v", q, err)
			}
			mem, got := collectKeys(t, memRes), collectKeys(t, stRes)
			if len(mem) == 0 || len(mem) != len(got) {
				t.Errorf("GOMAXPROCS %d, %s: %d answers in memory, %d from the store", procs, q, len(mem), len(got))
			}
			for k, n := range mem {
				if got[k] != n {
					t.Errorf("GOMAXPROCS %d, %s: answer %s ×%d in memory, ×%d from the store", procs, q, k, n, got[k])
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
