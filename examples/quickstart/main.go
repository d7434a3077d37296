// Quickstart: declare random variables, parse a conditional aggregate
// expression, and compute its exact probability distribution by knowledge
// compilation through the unified ExecExpr entrypoint. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"pvcagg"
)

func main() {
	ctx := context.Background()

	// A tiny uncertain inventory: each reading exists with some
	// probability.
	reg := pvcagg.NewRegistry()
	reg.DeclareBool("warehouse_a", 0.9)
	reg.DeclareBool("warehouse_b", 0.6)
	reg.DeclareBool("warehouse_c", 0.3)

	// "Is the total stock at most 120 units?" — a SUM aggregate over
	// uncertain rows, expressed in the paper's semimodule language.
	e := pvcagg.MustParseExpr(
		"[sum(warehouse_a @sum 50, warehouse_b @sum 40, warehouse_c @sum 80) <= 120]")

	res, err := pvcagg.ExecExpr(ctx, e, reg, pvcagg.Boolean)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("expression:  ", pvcagg.ExprString(e))
	fmt.Println("strategy:    ", res.Strategy)
	fmt.Println("distribution:", res.Dist)
	fmt.Printf("P[total ≤ 120] = %.4f\n", res.Confidence.Lo)
	fmt.Printf("d-tree: %d nodes, largest intermediate distribution %d entries\n",
		res.Report.Compile.Nodes, res.Report.Eval.MaxDistSize)

	// The distribution of the SUM itself (a semimodule expression —
	// always computed exactly).
	sum := pvcagg.MustParseExpr(
		"sum(warehouse_a @sum 50, warehouse_b @sum 40, warehouse_c @sum 80)")
	sumRes, err := pvcagg.ExecExpr(ctx, sum, reg, pvcagg.Boolean)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstock distribution:", sumRes.Dist)
	fmt.Printf("expected stock: %.1f units\n", sumRes.Dist.Expectation())

	// Hard expressions can instead be bracketed by the anytime engine —
	// guaranteed bounds of width ≤ ε:
	approx, err := pvcagg.ExecExpr(ctx, e, reg, pvcagg.Boolean,
		pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(0.01))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanytime bounds: %v (converged=%v)\n",
		approx.Confidence, approx.Approx.Converged)

	// Cross-check against brute-force possible-worlds enumeration.
	exact, err := pvcagg.Enumerate(sum, reg, pvcagg.Boolean)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("enumeration agrees:", sumRes.Dist.Equal(exact, 1e-12))

	// The same question asked declaratively: put the inventory in a
	// pvc-table and let PVQL build the plan — the sub-query aggregates,
	// the outer WHERE is the paper's σ over the aggregated value.
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	stock := pvcagg.NewRelation("stock", pvcagg.Schema{
		{Name: "site", Type: pvcagg.TString},
		{Name: "units", Type: pvcagg.TValue},
	})
	for _, row := range []struct {
		site  string
		p     float64
		units int64
	}{{"warehouse_a", 0.9, 50}, {"warehouse_b", 0.6, 40}, {"warehouse_c", 0.3, 80}} {
		if _, err := db.InsertIndependent(stock, row.p, pvcagg.StringCell(row.site), pvcagg.IntCell(row.units)); err != nil {
			log.Fatal(err)
		}
	}
	db.Add(stock)
	qres, err := pvcagg.ExecQuery(ctx, db,
		"SELECT * FROM (SELECT SUM(units) AS total FROM stock) WHERE total <= 120")
	if err != nil {
		log.Fatal(err)
	}
	outs, err := qres.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPVQL: P[total ≤ 120] = %.4f (strategy %v)\n", outs[0].Confidence.Lo, qres.Strategy)
}
