// TPC-H example: generate a probabilistic TPC-H instance (Experiment F of
// the paper) and run the two evaluation queries — Q1 (grouped COUNT over
// lineitem) and Q2 (five-way join with a nested MIN aggregate). Run with:
//
//	go run ./examples/tpch [-sf 0.001]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"pvcagg"
	"pvcagg/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.001, "TPC-H scale factor")
	flag.Parse()
	ctx := context.Background()

	db, err := tpch.Generate(tpch.Config{
		SF: *sf, Seed: 42, Probabilistic: true, TupleProb: 0.9,
	})
	if err != nil {
		log.Fatal(err)
	}
	li, _ := db.Relation("lineitem")
	ps, _ := db.Relation("partsupp")
	fmt.Printf("generated TPC-H at SF %g: %d lineitem, %d partsupp rows, %d random variables\n\n",
		*sf, li.Len(), ps.Len(), db.Registry.Len())

	// Q1: SELECT l_returnflag, l_linestatus, COUNT(*) FROM lineitem
	//     WHERE l_shipdate <= 1200 GROUP BY l_returnflag, l_linestatus
	fmt.Println("TPC-H Q1 (grouped COUNT):")
	res, err := pvcagg.Exec(ctx, db, tpch.Q1(1200), pvcagg.WithMode(pvcagg.Exact))
	if err != nil {
		log.Fatal(err)
	}
	outs, err := res.Collect()
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range outs {
		d := o.AggDists[0]
		fmt.Printf("  %s/%s: P[group] = %.4f, E[count] = %.1f, count support = %d values\n",
			o.Tuple.Cells[0], o.Tuple.Cells[1], o.Confidence.Lo, d.Expectation(), d.Size())
	}
	fmt.Printf("  construction ⟦·⟧ %v, probability P(·) %v\n\n", res.Timing.Construct, res.Timing.Probability)

	// The same Q1 in PVQL: ExecQuery parses, binds and optimizes the text
	// into the identical plan (the optimizer additionally prunes the
	// lineitem columns Q1 never reads), producing bit-identical answers.
	fmt.Println("TPC-H Q1 in PVQL:")
	qres, err := pvcagg.ExecQuery(ctx, db, `
	  SELECT l_returnflag, l_linestatus, COUNT(*) AS count_order
	  FROM lineitem
	  WHERE l_shipdate <= 1200
	  GROUP BY l_returnflag, l_linestatus`, pvcagg.WithMode(pvcagg.Exact))
	if err != nil {
		log.Fatal(err)
	}
	qouts, err := qres.Collect()
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range qouts {
		fmt.Printf("  %s/%s: P[group] = %.4f, E[count] = %.1f\n",
			o.Tuple.Cells[0], o.Tuple.Cells[1], o.Confidence.Lo, o.AggDists[0].Expectation())
	}
	fmt.Println()

	// Q2: minimum-cost suppliers for part 1 in AFRICA, with a nested
	// aggregation sub-query; Auto runs each tuple exact within its node bound.
	fmt.Println("TPC-H Q2 (nested MIN over a 5-way join):")
	res, err = pvcagg.Exec(ctx, db, tpch.Q2(1, "AFRICA"))
	if err != nil {
		log.Fatal(err)
	}
	if res.Len() == 0 {
		fmt.Println("  (no candidate suppliers at this scale — try a larger -sf)")
		return
	}
	outs, err = res.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  strategy:", res.Strategy)
	for _, o := range outs {
		if o.Confidence.Lo == o.Confidence.Hi {
			fmt.Printf("  %s: P[is the cheapest supplier] = %.4f\n", o.Tuple.Cells[0], o.Confidence.Lo)
		} else {
			fmt.Printf("  %s: P[is the cheapest supplier] ∈ %v\n", o.Tuple.Cells[0], o.Confidence)
		}
	}
	fmt.Printf("  construction ⟦·⟧ %v, probability P(·) %v\n", res.Timing.Construct, res.Timing.Probability)
}
