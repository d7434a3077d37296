package pvcagg_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// TestStoreStatsPinJoinOrder is the estimator differential: the
// optimizer must pick the same join order whether base-table statistics
// come from exact in-memory scans or from the store's persisted stats
// (row counts are exact; KMV distinct sketches are exact below the
// sketch size, which these tables are).
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
		memPlan, err := pvcagg.ParseQuery(db, q)
		if err != nil {
			t.Fatalf("%s (memory): %v", q, err)
		}
		stPlan, err := pvcagg.ParseQuery(st.DB(), q)
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
