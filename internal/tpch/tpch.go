// Package tpch is a self-contained synthetic TPC-H data generator used by
// Experiment F (paper Section 7.2). It produces the eight TPC-H tables
// with the official cardinality ratios (scaled by the scale factor), with
// deterministic seeded content, and optionally wraps the fact tables
// (lineitem, partsupp) as tuple-independent probabilistic relations.
//
// Substitution note: this generator stands in for the official dbgen
// tool. Experiment F's measured quantities depend only on table
// cardinalities and join fan-outs, and those are preserved.
package tpch

import (
	"fmt"
	"math/rand"

	"pvcagg/internal/algebra"
	"pvcagg/internal/pvc"
)

// Config controls generation.
type Config struct {
	// SF is the scale factor. The row counts are the official TPC-H
	// ratios multiplied by SF (minimum 1 row per non-empty table).
	SF float64
	// Seed makes generation deterministic.
	Seed int64
	// Probabilistic, when true, annotates every lineitem and partsupp
	// tuple with a fresh Boolean variable of marginal TupleProb
	// (tuple-independent tables); dimension tables stay deterministic.
	Probabilistic bool
	// TupleProb is the marginal probability of probabilistic tuples
	// (0 ⇒ 0.9).
	TupleProb float64
}

// Official TPC-H cardinalities at SF = 1.
const (
	cardSupplier = 10000
	cardPart     = 200000
	cardPartSupp = 800000
	cardCustomer = 150000
	cardOrders   = 1500000
	cardLineitem = 6000000
)

var (
	regions     = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	returnFlags = []string{"A", "N", "R"}
	lineStatus  = []string{"F", "O"}
)

func scaled(card int, sf float64) int {
	n := int(float64(card) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

// Generate builds the database.
func Generate(cfg Config) (*pvc.Database, error) {
	if cfg.SF <= 0 {
		return nil, fmt.Errorf("tpch: scale factor %v must be positive", cfg.SF)
	}
	p := cfg.TupleProb
	if p == 0 {
		p = 0.9
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("tpch: tuple probability %v out of range", p)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := pvc.NewDatabase(algebra.Boolean)

	nSupp := scaled(cardSupplier, cfg.SF)
	nPart := scaled(cardPart, cfg.SF)
	nPartSupp := scaled(cardPartSupp, cfg.SF)
	nCust := scaled(cardCustomer, cfg.SF)
	nOrders := scaled(cardOrders, cfg.SF)
	nLine := scaled(cardLineitem, cfg.SF)

	region := pvc.NewRelation("region", pvc.Schema{
		{Name: "r_regionkey", Type: pvc.TValue},
		{Name: "r_name", Type: pvc.TString},
	})
	for i, name := range regions {
		region.MustInsert(nil, pvc.IntCell(int64(i)), pvc.StringCell(name))
	}
	db.Add(region)

	nation := pvc.NewRelation("nation", pvc.Schema{
		{Name: "n_nationkey", Type: pvc.TValue},
		{Name: "n_name", Type: pvc.TString},
		{Name: "n_regionkey", Type: pvc.TValue},
	})
	for i := 0; i < 25; i++ {
		nation.MustInsert(nil,
			pvc.IntCell(int64(i)),
			pvc.StringCell(fmt.Sprintf("NATION%02d", i)),
			pvc.IntCell(int64(i%len(regions))))
	}
	db.Add(nation)

	supplier := pvc.NewRelation("supplier", pvc.Schema{
		{Name: "s_suppkey", Type: pvc.TValue},
		{Name: "s_name", Type: pvc.TString},
		{Name: "s_nationkey", Type: pvc.TValue},
	})
	for i := 1; i <= nSupp; i++ {
		supplier.MustInsert(nil,
			pvc.IntCell(int64(i)),
			pvc.StringCell(fmt.Sprintf("Supplier#%06d", i)),
			pvc.IntCell(int64(rng.Intn(25))))
	}
	db.Add(supplier)

	part := pvc.NewRelation("part", pvc.Schema{
		{Name: "p_partkey", Type: pvc.TValue},
		{Name: "p_mfgr", Type: pvc.TString},
		{Name: "p_size", Type: pvc.TValue},
	})
	for i := 1; i <= nPart; i++ {
		part.MustInsert(nil,
			pvc.IntCell(int64(i)),
			pvc.StringCell(fmt.Sprintf("Manufacturer#%d", 1+rng.Intn(5))),
			pvc.IntCell(int64(1+rng.Intn(50))))
	}
	db.Add(part)

	partsupp := pvc.NewRelation("partsupp", pvc.Schema{
		{Name: "ps_partkey", Type: pvc.TValue},
		{Name: "ps_suppkey", Type: pvc.TValue},
		{Name: "ps_supplycost", Type: pvc.TValue},
	})
	perPart := nPartSupp / nPart
	if perPart < 1 {
		perPart = 1
	}
	for i := 1; i <= nPart; i++ {
		for j := 0; j < perPart; j++ {
			cells := []pvc.Cell{
				pvc.IntCell(int64(i)),
				pvc.IntCell(int64(1 + (i+j*7)%nSupp)),
				pvc.IntCell(int64(100 + rng.Intn(90000))),
			}
			if cfg.Probabilistic {
				if _, err := db.InsertIndependent(partsupp, p, cells...); err != nil {
					return nil, err
				}
			} else {
				partsupp.MustInsert(nil, cells...)
			}
		}
	}
	db.Add(partsupp)

	customer := pvc.NewRelation("customer", pvc.Schema{
		{Name: "c_custkey", Type: pvc.TValue},
		{Name: "c_nationkey", Type: pvc.TValue},
	})
	for i := 1; i <= nCust; i++ {
		customer.MustInsert(nil, pvc.IntCell(int64(i)), pvc.IntCell(int64(rng.Intn(25))))
	}
	db.Add(customer)

	orders := pvc.NewRelation("orders", pvc.Schema{
		{Name: "o_orderkey", Type: pvc.TValue},
		{Name: "o_custkey", Type: pvc.TValue},
		{Name: "o_orderdate", Type: pvc.TValue},
	})
	for i := 1; i <= nOrders; i++ {
		orders.MustInsert(nil,
			pvc.IntCell(int64(i)),
			pvc.IntCell(int64(1+rng.Intn(nCust))),
			pvc.IntCell(int64(rng.Intn(2557)))) // days in [1992, 1998]
	}
	db.Add(orders)

	lineitem := pvc.NewRelation("lineitem", pvc.Schema{
		{Name: "l_orderkey", Type: pvc.TValue},
		{Name: "l_linenumber", Type: pvc.TValue},
		{Name: "l_quantity", Type: pvc.TValue},
		{Name: "l_extendedprice", Type: pvc.TValue},
		{Name: "l_returnflag", Type: pvc.TString},
		{Name: "l_linestatus", Type: pvc.TString},
		{Name: "l_shipdate", Type: pvc.TValue},
	})
	for i := 1; i <= nLine; i++ {
		flag := returnFlags[rng.Intn(len(returnFlags))]
		status := lineStatus[rng.Intn(len(lineStatus))]
		cells := []pvc.Cell{
			pvc.IntCell(int64(1 + rng.Intn(nOrders))),
			pvc.IntCell(int64(1 + i%7)),
			pvc.IntCell(int64(1 + rng.Intn(50))),
			pvc.IntCell(int64(1000 + rng.Intn(90000))),
			pvc.StringCell(flag),
			pvc.StringCell(status),
			pvc.IntCell(int64(rng.Intn(2557))),
		}
		if cfg.Probabilistic {
			if _, err := db.InsertIndependent(lineitem, p, cells...); err != nil {
				return nil, err
			}
		} else {
			lineitem.MustInsert(nil, cells...)
		}
	}
	db.Add(lineitem)
	return db, nil
}
