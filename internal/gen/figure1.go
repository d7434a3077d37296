package gen

import (
	"fmt"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/tpch"
)

// Demo builds the named demo database of pvcrun and pvcd: "shop" is
// Figure 1 at marginal p, "tpch" is probabilistic TPC-H at scale factor
// sf (seed 1).
func Demo(name string, p, sf float64) (*pvc.Database, error) {
	switch name {
	case "shop":
		return Figure1(p), nil
	case "tpch":
		return tpch.Generate(tpch.Config{SF: sf, Seed: 1, Probabilistic: true})
	default:
		return nil, fmt.Errorf("unknown demo %q (want shop or tpch)", name)
	}
}

// Figure1 builds the paper's running-example database (Figure 1) over the
// Boolean semiring: shops S (x1..x5), their price listings PS (y11..y51)
// and two product tables P1 (z1..z4) and P2 (z5), every tuple annotated
// with its own independent Boolean variable, true with probability p.
// Variables are declared in that order, so the registry is the same on
// every call.
func Figure1(p float64) *pvc.Database {
	db := pvc.NewDatabase(algebra.Boolean)
	tuple := func(r *pvc.Relation, v string, cells ...pvc.Cell) {
		db.Registry.DeclareBool(v, p)
		r.MustInsert(expr.V(v), cells...)
	}
	s := pvc.NewRelation("S", pvc.Schema{{Name: "sid", Type: pvc.TValue}, {Name: "shop", Type: pvc.TString}})
	for i, shop := range []string{"M&S", "M&S", "M&S", "Gap", "Gap"} {
		tuple(s, fmt.Sprintf("x%d", i+1), pvc.IntCell(int64(i+1)), pvc.StringCell(shop))
	}
	ps := pvc.NewRelation("PS", pvc.Schema{
		{Name: "sid", Type: pvc.TValue}, {Name: "pid", Type: pvc.TValue}, {Name: "price", Type: pvc.TValue},
	})
	for _, row := range [][3]int64{
		{1, 1, 10}, {1, 2, 50}, {2, 1, 11}, {2, 2, 60}, {3, 3, 15},
		{3, 4, 40}, {4, 1, 15}, {4, 3, 60}, {5, 1, 10},
	} {
		tuple(ps, fmt.Sprintf("y%d%d", row[0], row[1]), pvc.IntCell(row[0]), pvc.IntCell(row[1]), pvc.IntCell(row[2]))
	}
	products := pvc.Schema{{Name: "pid", Type: pvc.TValue}, {Name: "weight", Type: pvc.TValue}}
	p1, p2 := pvc.NewRelation("P1", products), pvc.NewRelation("P2", products)
	for i, row := range [][2]int64{{1, 4}, {2, 8}, {3, 7}, {4, 6}} {
		tuple(p1, fmt.Sprintf("z%d", i+1), pvc.IntCell(row[0]), pvc.IntCell(row[1]))
	}
	tuple(p2, "z5", pvc.IntCell(1), pvc.IntCell(5))
	for _, r := range []*pvc.Relation{s, ps, p1, p2} {
		db.Add(r)
	}
	return db
}
