// Shopdb reproduces the paper's running example (Figure 1): the
// suppliers/products database, the positive query Q1 and the aggregate
// query Q2 ("shops in which the maximal price for the products in P1 or
// P2 is at most 50"), with exact answer probabilities computed through
// the unified Exec entrypoint in Auto mode — each tuple compiles exactly
// within the paper's polynomial node bound, else runs anytime. Run with:
//
//	go run ./examples/shopdb
package main

import (
	"context"
	"fmt"
	"log"

	"pvcagg"
)

func main() {
	ctx := context.Background()
	db := build()

	// Q1 = π_{shop, price}[ S ⋈ PS ⋈ (P1 ∪ P2) ]           (Figure 1d)
	q1 := &pvcagg.Project{
		Cols: []string{"shop", "price"},
		Input: &pvcagg.Join{
			L: &pvcagg.Join{L: &pvcagg.Scan{Table: "S"}, R: &pvcagg.Scan{Table: "PS"}},
			R: &pvcagg.Union{L: &pvcagg.Scan{Table: "P1"}, R: &pvcagg.Scan{Table: "P2"}},
		},
	}
	// Q2 = π_shop σ_{P≤50} $_{shop; P←MAX(price)}[Q1]       (Figure 1e)
	q2 := &pvcagg.Project{
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

	fmt.Println("Q1 =", q1)
	res, err := pvcagg.Exec(ctx, db, q1, pvcagg.WithMode(pvcagg.Exact))
	if err != nil {
		log.Fatal(err)
	}
	outs, err := res.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Rel)
	for _, o := range outs {
		fmt.Printf("  P[%s, %s] = %.6g\n", o.Tuple.Cells[0], o.Tuple.Cells[1], o.Confidence.Lo)
	}

	fmt.Println("\nQ2 =", q2)
	res, err = pvcagg.Exec(ctx, db, q2) // Auto: exact per tuple within the node bound
	if err != nil {
		log.Fatal(err)
	}
	outs, err = res.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Rel)
	fmt.Println("  strategy:", res.Strategy)
	for _, o := range outs {
		fmt.Printf("  P[%s answers] = %.6g\n", o.Tuple.Cells[0], o.Confidence.Lo)
	}

	// The same Q2 in PVQL: the declarative frontend parses, binds and
	// optimizes the query down to the identical plan, so the answers are
	// bit-for-bit the ones above.
	const q2pvql = `
	  SELECT shop FROM (
	    SELECT shop, MAX(price) AS P FROM (
	      SELECT shop, price FROM S JOIN PS JOIN (SELECT * FROM P1 UNION SELECT * FROM P2)
	    ) GROUP BY shop
	  ) WHERE P <= 50`
	fmt.Println("\nQ2 in PVQL:")
	qres, err := pvcagg.ExecQuery(ctx, db, q2pvql)
	if err != nil {
		log.Fatal(err)
	}
	qouts, err := qres.Collect()
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range qouts {
		fmt.Printf("  P[%s answers] = %.6g\n", o.Tuple.Cells[0], o.Confidence.Lo)
	}

	// Example 9's variant Q2′ with MIN instead of MAX.
	q2prime := &pvcagg.Project{
		Cols: []string{"shop"},
		Input: &pvcagg.Select{
			Pred: pvcagg.Where(pvcagg.ColTheta("P", pvcagg.LE, pvcagg.IntCell(50))),
			Input: &pvcagg.GroupAgg{
				Input:   q1,
				GroupBy: []string{"shop"},
				Aggs:    []pvcagg.AggSpec{{Out: "P", Agg: pvcagg.MIN, Over: "price"}},
			},
		},
	}
	fmt.Println("\nQ2' (Example 9, MIN) =", q2prime)
	res, err = pvcagg.Exec(ctx, db, q2prime, pvcagg.WithMode(pvcagg.Exact))
	if err != nil {
		log.Fatal(err)
	}
	outs, err = res.Collect()
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range outs {
		fmt.Printf("  P[%s answers] = %.6g\n", o.Tuple.Cells[0], o.Confidence.Lo)
	}
}

// build constructs Figure 1's pvc-database with the annotation variables
// x1..x5, y11..y51, z1..z5, each true with probability 1/2.
func build() *pvcagg.Database {
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
		s.MustInsert(declare(fmt.Sprintf("x%d", i+1)),
			pvcagg.IntCell(int64(i+1)), pvcagg.StringCell(shop))
	}
	db.Add(s)

	ps := pvcagg.NewRelation("PS", pvcagg.Schema{
		{Name: "sid", Type: pvcagg.TValue},
		{Name: "pid", Type: pvcagg.TValue},
		{Name: "price", Type: pvcagg.TValue},
	})
	for _, r := range [][3]int64{
		{1, 1, 10}, {1, 2, 50}, {2, 1, 11}, {2, 2, 60}, {3, 3, 15},
		{3, 4, 40}, {4, 1, 15}, {4, 3, 60}, {5, 1, 10},
	} {
		ps.MustInsert(declare(fmt.Sprintf("y%d%d", r[0], r[1])),
			pvcagg.IntCell(r[0]), pvcagg.IntCell(r[1]), pvcagg.IntCell(r[2]))
	}
	db.Add(ps)

	p1 := pvcagg.NewRelation("P1", pvcagg.Schema{
		{Name: "pid", Type: pvcagg.TValue},
		{Name: "weight", Type: pvcagg.TValue},
	})
	for i, r := range [][2]int64{{1, 4}, {2, 8}, {3, 7}, {4, 6}} {
		p1.MustInsert(declare(fmt.Sprintf("z%d", i+1)), pvcagg.IntCell(r[0]), pvcagg.IntCell(r[1]))
	}
	db.Add(p1)

	p2 := pvcagg.NewRelation("P2", pvcagg.Schema{
		{Name: "pid", Type: pvcagg.TValue},
		{Name: "weight", Type: pvcagg.TValue},
	})
	p2.MustInsert(declare("z5"), pvcagg.IntCell(1), pvcagg.IntCell(5))
	db.Add(p2)
	return db
}
