package main

import (
	"context"
	"fmt"
	"math/rand"

	"pvcagg/internal/tpch"
)

// tpch-agg: the paper's §7.2 setting — probabilistic TPC-H held in
// memory, queries as PVQL text through ExecQuery. The whole library path
// runs (PVQL → optimizer → in-memory step I → step II over many result
// tuples); the store and the server do nothing. Nine templates at three
// constants each spread the cost from a millisecond to a few hundred.
//
// The seed moves every constant by a few units and deals the order of
// the ops. The data is the same at every seed: with 6000 rows, another
// draw of the data moves single ops by a tenth (ten seeds: op_ms_p50 32.8
// to 37.0 ms, alloc_mb_per_op 47.8 to 50.6), which is the spread of two
// datasets and not of the program.

const (
	tpchAggSF   = 0.001 // 6000 lineitems, 1500 orders, 150 customers, 800 partsupps
	tpchAggP    = 0.9
	tpchAggData = 1 // the generator seed of the dataset
)

// The renamings below make PVQL's natural JOIN match the key columns.
const (
	ordersAsLineitemKey = "(SELECT o_orderkey AS l_orderkey, o_custkey, o_orderdate FROM orders)"
	q2Join              = "part JOIN (SELECT ps_partkey AS p_partkey, ps_suppkey AS s_suppkey, ps_supplycost FROM partsupp)" +
		" JOIN supplier JOIN (SELECT n_nationkey AS s_nationkey, n_regionkey FROM nation)" +
		" JOIN (SELECT r_regionkey AS n_regionkey, r_name FROM region)"
)

// q2Text is the paper's Q2: the suppliers of a part in a region whose
// supply cost is the minimum one (a nested MIN over the five-way join).
func q2Text(part int64, region string) string {
	where := fmt.Sprintf(" WHERE p_partkey = %d AND r_name = '%s'", part, region)
	return "SELECT s_name FROM (SELECT s_name, ps_supplycost FROM " + q2Join + where + ")," +
		" (SELECT MIN(ps_supplycost) AS mincost FROM " + q2Join + where + ") WHERE ps_supplycost = mincost"
}

func tpchAggSpecs(rng *rand.Rand) []querySpec {
	var specs []querySpec
	add := func(id string, c int64, text string, m mode, ref func(*refData) map[string]refWant, oracle bool) {
		specs = append(specs, querySpec{id: fmt.Sprintf("%s c=%d", id, c), text: text, mode: m, ref: ref, oracle: oracle})
	}
	jit := func(base, spread int64) int64 { return base + rng.Int63n(spread) }
	flagStatus := func(r *liRow) string { return key(r.flag, r.status) }
	byOrder := func(r *liRow) string { return key(r.order) }

	for _, base := range []int64{700, 1500, 2300} {
		c := jit(base, 4)
		add("q1-count", c,
			fmt.Sprintf("SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem WHERE l_shipdate <= %d GROUP BY l_returnflag, l_linestatus", c),
			modeAuto, func(d *refData) map[string]refWant {
				return d.groupLineitem(func(r *liRow) bool { return r.ship <= c }, flagStatus, liAgg{kind: "count"})
			}, false)
	}
	// The ROADMAP's pathology: SUM's distribution grows with the number
	// of summed rows, so step II is quadratic in the cutoff.
	for _, base := range []int64{120, 200, 280} {
		c := jit(base, 4)
		add("q1-sum", c,
			fmt.Sprintf("SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS q FROM lineitem WHERE l_shipdate <= %d GROUP BY l_returnflag, l_linestatus", c),
			modeAuto, func(d *refData) map[string]refWant {
				return d.groupLineitem(func(r *liRow) bool { return r.ship <= c }, flagStatus, liAgg{"sum", func(r *liRow) int64 { return r.qty }})
			}, false)
	}
	// Per-order group-bys: about a thousand tiny d-trees, so per-tuple
	// overhead is what is measured.
	for _, base := range []int64{500, 800, 1300} {
		c := jit(base, 4)
		add("order-sum", c,
			fmt.Sprintf("SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem WHERE l_orderkey <= %d GROUP BY l_orderkey", c),
			modeAuto, func(d *refData) map[string]refWant {
				return d.groupLineitem(func(r *liRow) bool { return r.order <= c }, byOrder, liAgg{"sum", func(r *liRow) int64 { return r.qty }})
			}, true)
	}
	for _, base := range []int64{480, 800, 1200} {
		c := jit(base, 4)
		add("order-max-count", c,
			fmt.Sprintf("SELECT l_orderkey, MAX(l_extendedprice) AS m, COUNT(*) AS n FROM lineitem WHERE l_orderkey <= %d GROUP BY l_orderkey", c),
			modeAuto, func(d *refData) map[string]refWant {
				return d.groupLineitem(func(r *liRow) bool { return r.order <= c }, byOrder,
					liAgg{"max", func(r *liRow) int64 { return r.price }}, liAgg{kind: "count"})
			}, true)
	}
	// orders ⋈ lineitem grouped by customer: 150 groups that share
	// structure — what SharedCache and a DAG compiler target.
	for _, base := range []int64{800, 1900, 2400} {
		c := jit(base, 4)
		add("cust-count", c,
			fmt.Sprintf("SELECT o_custkey, COUNT(*) AS n FROM %s JOIN lineitem WHERE o_orderdate <= %d GROUP BY o_custkey", ordersAsLineitemKey, c),
			modeAuto, func(d *refData) map[string]refWant {
				return d.groupLineitem(func(r *liRow) bool { return d.date[r.order] <= c },
					func(r *liRow) string { return key(d.cust[r.order]) }, liAgg{kind: "count"})
			}, false)
	}
	for _, base := range []int64{500, 800, 1500} {
		c := jit(base, 4)
		add("cust-sum", c,
			fmt.Sprintf("SELECT o_custkey, SUM(l_quantity) AS q FROM %s JOIN lineitem WHERE o_orderdate <= %d GROUP BY o_custkey", ordersAsLineitemKey, c),
			modeAuto, func(d *refData) map[string]refWant {
				return d.groupLineitem(func(r *liRow) bool { return d.date[r.order] <= c },
					func(r *liRow) string { return key(d.cust[r.order]) }, liAgg{"sum", func(r *liRow) int64 { return r.qty }})
			}, false)
	}
	// σ over an aggregated sub-query: the paper's selection on semimodule
	// values, which multiplies [SUM ≥ c] into each annotation.
	for i, base := range []int64{60, 100, 140} {
		c := jit(base, 3)
		add("sigma-sum", c,
			fmt.Sprintf("SELECT l_orderkey FROM (SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem WHERE l_orderkey <= %d GROUP BY l_orderkey) WHERE q >= %d", 350+200*i, c),
			modeAuto, nil, true)
	}
	regions := []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	for _, base := range []int64{1, 70, 140} {
		c := jit(base, 50)
		add("q2", c, q2Text(c, regions[rng.Intn(len(regions))]), modeAuto, nil, true)
	}
	// A self-join is never hierarchical: "suppliers that supply two of
	// the first c parts". Exact compilation has no good decomposition,
	// so the op names the anytime engine.
	for _, c := range []int64{28, 33, 38} { // one part more is 3 % more pairs: no jitter here
		add("self-join", c,
			fmt.Sprintf("SELECT ps_suppkey FROM (SELECT ps_partkey AS p1, ps_suppkey FROM partsupp WHERE ps_partkey <= %d)"+
				" JOIN (SELECT ps_partkey AS p2, ps_suppkey FROM partsupp WHERE ps_partkey <= %d) WHERE p1 < p2", c, c),
			mode{name: "anytime", eps: 0.05}, nil, false)
	}
	return specs
}

// tpchAgg is the workload at scale factor sf (the oracle test runs a
// copy with a dozen lineitems).
func tpchAgg(sf float64) func(seed int64, dir string) (*instance, error) {
	return func(seed int64, _ string) (*instance, error) { return setupTPCHAgg(seed, sf) }
}

func setupTPCHAgg(seed int64, sf float64) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	db, err := tpch.Generate(tpch.Config{SF: sf, Seed: tpchAggData, Probabilistic: true, TupleProb: tpchAggP})
	if err != nil {
		return nil, err
	}
	specs := tpchAggSpecs(rng)
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	inst := &instance{clients: 1, ops: queryOps(specs, db, nil)}
	inst.verify = func(ctx context.Context, last []*answer) map[int]string {
		ref, err := refFromDB(db, tpchAggP)
		if err != nil {
			return map[int]string{0: err.Error()}
		}
		return verifyQueries(ctx, specs, last, ref, func(ctx context.Context, q querySpec) (*answer, error) {
			return runQuery(ctx, db, nil, q.text, modeExact, false)
		})
	}
	return inst, nil
}
