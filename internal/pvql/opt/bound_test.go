package opt_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/engine"
	"pvcagg/internal/pvc"
	"pvcagg/internal/pvql/opt"
	"pvcagg/internal/store"
	"pvcagg/internal/tpch"
)

// TestRowBoundBoundsActualRows: engine.RowBound is a bound. At every
// node of EXPLAIN ANALYZE the actual rows are at most the bound EXPLAIN
// states, over every plan the optimizer differential generates (naive,
// optimized and optimized twice, at the default build-side threshold
// and with every eligible join commuted), over the same texts bound to
// a store-backed copy of one differential database, and over TPC-H Q1
// and Q2 and Figure 1's Q2, naive and optimized.
func TestRowBoundBoundsActualRows(t *testing.T) {
	ctx := context.Background()
	check := func(what string, db *pvc.Database, p engine.Plan) {
		t.Helper()
		_, _, ex, err := engine.StreamEvalPlanExplain(ctx, db, p)
		if err != nil {
			t.Fatalf("%s: %s: %v", what, p, err)
		}
		var walk func(n *engine.ExplainNode)
		walk = func(n *engine.ExplainNode) {
			if n.ActualRows < 0 || n.ActualRows > n.RowsBound {
				t.Errorf("%s: %s emitted %d rows over a bound of %d:\n%s", what, n.Op, n.ActualRows, n.RowsBound, ex.Render())
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(ex)
	}
	checkOptimized := func(what string, db *pvc.Database, naive engine.Plan) {
		t.Helper()
		optimized := opt.Optimize(naive, db)
		for i, p := range []engine.Plan{naive, optimized, opt.Optimize(optimized, db)} {
			check(fmt.Sprintf("%s/%s", what, []string{"naive", "optimized", "twice"}[i]), db, p)
		}
	}

	stored := storeCopy(t, diffDB(rand.New(rand.NewSource(1)), diffRows))
	def := opt.BuildSideThreshold
	defer func() { opt.BuildSideThreshold = def }()
	for _, run := range []struct {
		first, queries, threshold int64
	}{{0, 120, def}, {9000, 60, 1}} {
		opt.BuildSideThreshold = run.threshold
		for seed := run.first; seed < run.first+run.queries; seed++ {
			rng := rand.New(rand.NewSource(seed))
			db := diffDB(rng, diffRows)
			src := randQuery(rng)
			checkOptimized(fmt.Sprintf("seed %d: %q", seed, src), db, naivePlan(t, seed, db, src))
			checkOptimized(fmt.Sprintf("seed %d: %q (store)", seed, src), stored, naivePlan(t, seed, stored, src))
		}
	}
	opt.BuildSideThreshold = def

	db, err := tpch.Generate(tpch.Config{SF: 0.001, Seed: 1, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	checkOptimized("TPC-H Q1", db, tpch.Q1(1200))
	checkOptimized("TPC-H Q2", db, tpch.Q2(1, "EUROPE"))
	shop := figure1DB(t)
	checkOptimized("Figure 1 Q2", shop, naivePlan(t, 0, shop, `
  SELECT shop FROM (
    SELECT shop, MAX(price) AS P FROM (
      SELECT shop, price FROM S JOIN PS JOIN (SELECT * FROM P1 UNION SELECT * FROM P2)
    ) GROUP BY shop
  ) WHERE P <= 50`))
}

// storeCopy writes db's relations to a store of two-row blocks and
// returns the store-backed database over it.
func storeCopy(t *testing.T, db *pvc.Database) *pvc.Database {
	t.Helper()
	dir := t.TempDir()
	w, err := store.Create(dir, db.Kind, db.Registry, store.Options{BlockCapacity: 2})
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
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st.Database()
}

// figure1DB is the paper's Figure 1 database with every tuple marginal
// 1/2.
func figure1DB(t *testing.T) *pvc.Database {
	t.Helper()
	db := pvc.NewDatabase(algebra.Boolean)
	add := func(name string, cols []string, rows ...[]pvc.Cell) {
		schema := make(pvc.Schema, len(cols))
		for i, c := range cols {
			schema[i] = pvc.Col{Name: c, Type: pvc.TValue}
			if c == "shop" {
				schema[i].Type = pvc.TString
			}
		}
		rel := pvc.NewRelation(name, schema)
		for _, r := range rows {
			if _, err := db.InsertIndependent(rel, 0.5, r...); err != nil {
				t.Fatal(err)
			}
		}
		db.Add(rel)
	}
	i, s := pvc.IntCell, pvc.StringCell
	add("S", []string{"sid", "shop"},
		[]pvc.Cell{i(1), s("M&S")}, []pvc.Cell{i(2), s("M&S")}, []pvc.Cell{i(3), s("M&S")},
		[]pvc.Cell{i(4), s("Gap")}, []pvc.Cell{i(5), s("Gap")})
	add("PS", []string{"sid", "pid", "price"},
		[]pvc.Cell{i(1), i(1), i(10)}, []pvc.Cell{i(1), i(2), i(50)}, []pvc.Cell{i(2), i(1), i(11)},
		[]pvc.Cell{i(2), i(2), i(60)}, []pvc.Cell{i(3), i(3), i(15)}, []pvc.Cell{i(3), i(4), i(40)},
		[]pvc.Cell{i(4), i(1), i(15)}, []pvc.Cell{i(4), i(3), i(60)}, []pvc.Cell{i(5), i(1), i(10)})
	add("P1", []string{"pid", "weight"},
		[]pvc.Cell{i(1), i(4)}, []pvc.Cell{i(2), i(8)}, []pvc.Cell{i(3), i(7)}, []pvc.Cell{i(4), i(6)})
	add("P2", []string{"pid", "weight"}, []pvc.Cell{i(1), i(5)})
	return db
}
