package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"time"

	"pvcagg"
	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/store"
	"pvcagg/internal/tpch"
	"pvcagg/internal/vars"
)

// store-scan: deterministic TPC-H streamed into the columnar store at
// set-up — so setup_s is the ingest path — then PVQL over the store.
// Annotations are One and step II is trivial; scans and step-I iterators
// do the work. The same layer is used three ways: full scans, scans that
// zone maps cut down to a few blocks, and writes (set-up), so an encoding
// that speeds reads but slows ingest or grows the files shows in setup_s
// and store.disk_bytes_per_row.
//
// The store has no block cache of its own; reads are served from the
// operating system's page cache, which set-up has just filled.
//
// The seed moves every constant by a few units and deals the order of
// the ops; the data is the same at every seed (see tpch-agg), so row
// counts, block counts and skip ratios repeat exactly.

// storeScanSF gives 300k lineitems in 74 blocks, 25 MB on disk: set-up
// (ingest plus warm-up pass) stays near three seconds, which the run
// pays three times.
const storeScanSF = 0.05

// storeScanData is the generator seed of the dataset.
const storeScanData = 1

// ingested is a store written by ingest, with what the writing cost.
type ingested struct {
	st       *pvcagg.Store
	dir      string
	cfg      tpch.Config
	rows     int64
	ingest   time.Duration
	open     time.Duration
	diskSize int64
}

type storeSink struct {
	w    *store.Writer
	tw   *store.TableWriter
	rows int64
}

func (s *storeSink) Table(name string, schema pvc.Schema) error {
	tw, err := s.w.CreateTable(name, schema)
	s.tw = tw
	return err
}

func (s *storeSink) Row(ann expr.Expr, cells ...pvc.Cell) error {
	s.rows++
	return s.tw.Append(ann, cells...)
}

// ingest streams the generator into a new store under dir and opens it.
func ingest(cfg tpch.Config, dir string) (*ingested, error) {
	t0 := time.Now()
	reg := vars.NewRegistry()
	w, err := store.Create(dir, algebra.Boolean, reg, store.Options{})
	if err != nil {
		return nil, err
	}
	sink := &storeSink{w: w}
	if err := tpch.Stream(cfg, reg, sink); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	in := &ingested{dir: dir, cfg: cfg, rows: sink.rows, ingest: time.Since(t0)}
	t1 := time.Now()
	if in.st, err = pvcagg.OpenStore(dir); err != nil {
		return nil, err
	}
	in.open = time.Since(t1)
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			in.diskSize += info.Size()
		}
		return err
	})
	return in, err
}

// layer reports the write side of the store.
func (in *ingested) layer() map[string]float64 {
	return map[string]float64{
		"store.ingest_rows_per_s":  float64(in.rows) / in.ingest.Seconds(),
		"store.disk_bytes_per_row": float64(in.diskSize) / float64(in.rows),
		"store.open_ms":            ms(in.open),
	}
}

// fullScan drains lineitem through the store's own scan, all columns, no
// hints: the read path without step I on top.
func (in *ingested) fullScan(ctx context.Context) (mbPerS float64, err error) {
	st, err := store.Open(in.dir)
	if err != nil {
		return 0, err
	}
	tab, ok := st.Table("lineitem")
	if !ok {
		return 0, fmt.Errorf("store has no lineitem")
	}
	t0 := time.Now()
	it, err := tab.NewScan(ctx, pvc.ScanOptions{})
	if err != nil {
		return 0, err
	}
	defer it.Close()
	for {
		_, ok, err := it.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
	}
	return float64(st.Metrics().BytesRead) / 1e6 / time.Since(t0).Seconds(), nil
}

func storeScanSpecs(rng *rand.Rand, nOrders int64) []querySpec {
	var specs []querySpec
	add := func(id string, c int64, text string, ref func(*refData) map[string]refWant) {
		specs = append(specs, querySpec{id: fmt.Sprintf("%s c=%d", id, c), text: text, mode: modeAuto, ref: ref})
	}
	jit := func(base, spread int64) int64 { return base + rng.Int63n(spread) }
	price := func(r *liRow) int64 { return r.price }

	// Q1 at four cutoffs: lineitem is clustered by ship date, so zone maps
	// skip about 90%, 73%, 35% and none of the blocks.
	for _, base := range []int64{240, 680, 1650, 2600} {
		c := jit(base, 4)
		add("q1-count", c,
			fmt.Sprintf("SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem WHERE l_shipdate <= %d GROUP BY l_returnflag, l_linestatus", c),
			func(d *refData) map[string]refWant {
				return d.groupLineitem(func(r *liRow) bool { return r.ship <= c }, func(r *liRow) string { return key(r.flag, r.status) }, liAgg{kind: "count"})
			})
	}
	// Wide projections: the price column is decoded for every row read.
	for _, base := range []int64{800, 1250, 2000} {
		c := jit(base, 4)
		add("flag-price", c,
			fmt.Sprintf("SELECT l_returnflag, SUM(l_extendedprice) AS s FROM lineitem WHERE l_shipdate <= %d GROUP BY l_returnflag", c),
			func(d *refData) map[string]refWant {
				return d.groupLineitem(func(r *liRow) bool { return r.ship <= c }, func(r *liRow) string { return key(r.flag) }, liAgg{"sum", price})
			})
	}
	for _, base := range []int64{2010, 1500, 700} {
		c := jit(base, 4)
		add("line-price-disc", c,
			fmt.Sprintf("SELECT l_linenumber, SUM(l_extendedprice) AS s, MAX(l_discount) AS d FROM lineitem WHERE l_shipdate >= %d GROUP BY l_linenumber", c),
			func(d *refData) map[string]refWant {
				return d.groupLineitem(func(r *liRow) bool { return r.ship >= c }, func(r *liRow) string { return key(r.line) },
					liAgg{"sum", price}, liAgg{"max", func(r *liRow) int64 { return r.disc }})
			})
	}
	// Key look-ups: lineitem is clustered by order key too, so all but
	// one block is skipped.
	for _, frac := range []int64{1, 3, 5, 7} {
		c := jit(nOrders*frac/8, 50)
		add("order-lookup", c,
			fmt.Sprintf("SELECT l_linenumber, l_quantity, l_shipdate FROM lineitem WHERE l_orderkey = %d", c),
			func(d *refData) map[string]refWant {
				return d.groupLineitem(func(r *liRow) bool { return r.order == c }, func(r *liRow) string { return key(r.line, r.qty, r.ship) })
			})
	}
	// A join: customers are spread over all orders, so both tables are
	// read in full and the hash join's build side grows with c.
	for _, base := range []int64{100, 400, 800} {
		c := jit(base, 4)
		add("cust-count", c,
			fmt.Sprintf("SELECT o_custkey, COUNT(*) AS n FROM (SELECT o_orderkey AS l_orderkey, o_custkey FROM orders WHERE o_custkey <= %d) JOIN lineitem GROUP BY o_custkey", c),
			func(d *refData) map[string]refWant {
				return d.groupLineitem(func(r *liRow) bool { return d.cust[r.order] <= c }, func(r *liRow) string { return key(d.cust[r.order]) }, liAgg{kind: "count"})
			})
	}
	for _, base := range []int64{300, 1200, 2400} {
		c := jit(base, 4)
		add("part-mincost", c,
			fmt.Sprintf("SELECT ps_partkey, MIN(ps_supplycost) AS c FROM partsupp WHERE ps_partkey <= %d GROUP BY ps_partkey", c),
			func(d *refData) map[string]refWant {
				return d.groupPartsupp(func(r *psRow) bool { return r.part <= c }, func(r *psRow) string { return key(r.part) },
					psAgg{"min", func(r *psRow) int64 { return r.cost }})
			})
	}
	return specs
}

// storeScan is the workload at scale factor sf.
func storeScan(sf float64) func(seed int64, dir string) (*instance, error) {
	return func(seed int64, dir string) (*instance, error) { return setupStoreScan(seed, dir, sf) }
}

func setupStoreScan(seed int64, dir string, sf float64) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	in, err := ingest(tpch.Config{SF: sf, Seed: storeScanData}, dir)
	if err != nil {
		return nil, err
	}
	specs := storeScanSpecs(rng, max(1, int64(1500000*sf)))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	inst := &instance{
		clients: 1,
		ops:     queryOps(specs, nil, in.st),
		layer:   in.layer(),
		notes: []string{
			fmt.Sprintf("store: TPC-H SF %g, %d rows, %.1f MB on disk; no block cache in the store, reads come from the OS page cache", sf, in.rows, float64(in.diskSize)/1e6),
			"setup_s is the ingest path (generate, encode, write, commit, open) plus the warm-up pass",
		},
	}
	inst.verify = func(ctx context.Context, last []*answer) map[int]string {
		ref, err := refFromStream(in.cfg)
		if err != nil {
			return map[int]string{0: err.Error()}
		}
		return verifyQueries(ctx, specs, last, ref, nil)
	}
	inst.traced = func(ctx context.Context, _ *tracer) error {
		mbs, err := in.fullScan(ctx)
		inst.layer["store.fullscan_mb_per_s"] = mbs
		return err
	}
	return inst, nil
}
