package main

import (
	"fmt"
	"math"
	"strings"

	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/tpch"
	"pvcagg/internal/vars"
)

// This file is the reference the query workloads are checked against: a
// few lines of Go that compute each group-by template's answer straight
// from the generated rows, sharing no code with PVQL, the optimizer,
// step I or step II. Fact tuples are independent with one marginal p, so
// a group of n matching rows has confidence 1-(1-p)^n, E[COUNT] = n·p
// and E[SUM] = p·Σv; deterministic data (p = 1) also fixes MIN and MAX.

type liRow struct {
	order, line, qty, price, disc, ship int64
	flag, status                        string
}

type psRow struct{ part, supp, cost int64 }

// refData is the generated data in plain form.
type refData struct {
	p    float64 // marginal of lineitem and partsupp tuples; 1 when deterministic
	li   []liRow
	ps   []psRow
	cust map[int64]int64 // o_orderkey → o_custkey
	date map[int64]int64 // o_orderkey → o_orderdate
}

// refFromDB reads the reference rows out of an in-memory database.
func refFromDB(db *pvc.Database, p float64) (*refData, error) {
	d := &refData{p: p, cust: map[int64]int64{}, date: map[int64]int64{}}
	for _, name := range []string{"lineitem", "partsupp", "orders"} {
		rel, err := db.Relation(name)
		if err != nil {
			return nil, err
		}
		for _, t := range rel.Tuples {
			d.add(name, rel.Schema, t.Cells)
		}
	}
	return d, nil
}

// refFromStream regenerates the streamed dataset into reference rows.
func refFromStream(cfg tpch.Config) (*refData, error) {
	d := &refData{p: 1, cust: map[int64]int64{}, date: map[int64]int64{}}
	if cfg.Probabilistic {
		d.p = cfg.TupleProb
	}
	if err := tpch.Stream(cfg, vars.NewRegistry(), &refSink{d: d}); err != nil {
		return nil, err
	}
	return d, nil
}

type refSink struct {
	d      *refData
	table  string
	schema pvc.Schema
}

func (s *refSink) Table(name string, schema pvc.Schema) error {
	s.table, s.schema = name, schema
	return nil
}

func (s *refSink) Row(_ expr.Expr, cells ...pvc.Cell) error {
	s.d.add(s.table, s.schema, cells)
	return nil
}

func (d *refData) add(table string, schema pvc.Schema, cells []pvc.Cell) {
	num := func(col string) int64 {
		if i := schema.Index(col); i >= 0 {
			return cells[i].Value().Int64()
		}
		return 0
	}
	switch table {
	case "lineitem":
		d.li = append(d.li, liRow{
			order: num("l_orderkey"), line: num("l_linenumber"), qty: num("l_quantity"),
			price: num("l_extendedprice"), disc: num("l_discount"), ship: num("l_shipdate"),
			flag: cells[schema.Index("l_returnflag")].Str(), status: cells[schema.Index("l_linestatus")].Str(),
		})
	case "partsupp":
		d.ps = append(d.ps, psRow{part: num("ps_partkey"), supp: num("ps_suppkey"), cost: num("ps_supplycost")})
	case "orders":
		d.cust[num("o_orderkey")] = num("o_custkey")
		d.date[num("o_orderkey")] = num("o_orderdate")
	}
}

// refAgg is one aggregation column of a reference query over rows of
// type T.
type refAgg[T any] struct {
	kind string // "count", "sum", "min", "max"
	val  func(*T) int64
}

// refWant is the expected answer tuple of one group.
type refWant struct {
	conf float64
	aggs []float64 // NaN where no closed form exists
}

func key(parts ...any) string {
	s := make([]string, len(parts))
	for i, p := range parts {
		s[i] = fmt.Sprint(p)
	}
	return strings.Join(s, "\x1f")
}

// group evaluates SELECT key, aggs FROM rows WHERE pred GROUP BY key over
// independent tuples of marginal p.
func group[T any](rows []T, p float64, pred func(*T) bool, keyOf func(*T) string, aggs ...refAgg[T]) map[string]refWant {
	type acc struct {
		n    int
		vals []float64
	}
	groups := map[string]*acc{}
	for i := range rows {
		r := &rows[i]
		if !pred(r) {
			continue
		}
		k := keyOf(r)
		g := groups[k]
		if g == nil {
			g = &acc{vals: make([]float64, len(aggs))}
			for j, a := range aggs {
				switch a.kind {
				case "min":
					g.vals[j] = math.Inf(1)
				case "max":
					g.vals[j] = math.Inf(-1)
				}
			}
			groups[k] = g
		}
		g.n++
		for j, a := range aggs {
			switch a.kind {
			case "sum":
				g.vals[j] += float64(a.val(r))
			case "min":
				g.vals[j] = math.Min(g.vals[j], float64(a.val(r)))
			case "max":
				g.vals[j] = math.Max(g.vals[j], float64(a.val(r)))
			}
		}
	}
	out := make(map[string]refWant, len(groups))
	for k, g := range groups {
		w := refWant{conf: 1 - math.Pow(1-p, float64(g.n)), aggs: make([]float64, len(aggs))}
		for j, a := range aggs {
			switch {
			case a.kind == "count":
				w.aggs[j] = p * float64(g.n)
			case a.kind == "sum":
				w.aggs[j] = p * g.vals[j]
			case p == 1:
				w.aggs[j] = g.vals[j]
			default:
				w.aggs[j] = math.NaN()
			}
		}
		out[k] = w
	}
	return out
}

type (
	liAgg = refAgg[liRow]
	psAgg = refAgg[psRow]
)

func (d *refData) groupLineitem(pred func(*liRow) bool, keyOf func(*liRow) string, aggs ...liAgg) map[string]refWant {
	return group(d.li, d.p, pred, keyOf, aggs...)
}

func (d *refData) groupPartsupp(pred func(*psRow) bool, keyOf func(*psRow) string, aggs ...psAgg) map[string]refWant {
	return group(d.ps, d.p, pred, keyOf, aggs...)
}

// checkRef compares an answer with the reference groups.
func checkRef(rows []row, want map[string]refWant) string {
	if len(rows) != len(want) {
		return fmt.Sprintf("%d answer tuples, reference has %d groups", len(rows), len(want))
	}
	for _, r := range rows {
		k := strings.Join(r.Cells, "\x1f")
		w, ok := want[k]
		if !ok {
			return fmt.Sprintf("tuple %q is not a reference group", r.Cells)
		}
		if math.Abs(r.Lo-w.conf) > 1e-9 || math.Abs(r.Hi-w.conf) > 1e-9 {
			return fmt.Sprintf("tuple %q: confidence [%v, %v], reference %v", r.Cells, r.Lo, r.Hi, w.conf)
		}
		if len(r.Aggs) != len(w.aggs) {
			return fmt.Sprintf("tuple %q: %d aggregates, reference has %d", r.Cells, len(r.Aggs), len(w.aggs))
		}
		for j, a := range w.aggs {
			if !math.IsNaN(a) && math.Abs(r.Aggs[j]-a) > 1e-9*math.Max(1, math.Abs(a)) {
				return fmt.Sprintf("tuple %q: aggregate %d is %v, reference %v", r.Cells, j, r.Aggs[j], a)
			}
		}
	}
	return ""
}
