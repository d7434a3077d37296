package engine

import (
	"context"
	"math"
	"sync"

	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// This file estimates result cardinalities of Q-algebra plans, the cost
// signal behind the PVQL optimizer's greedy join ordering. Estimates are
// classical System-R style: base relations report their true row and
// per-column distinct counts (pvc-tables are in memory, so the "stats"
// are exact), joins divide by the largest distinct count of each shared
// key, and inequality selections apply a fixed 1/3 selectivity.
// Annotations are ignored — a pvc-tuple with a low-probability annotation
// still costs a compilation, which is exactly what the optimizer should
// minimise.

// CardEstimate is the estimated size of a plan's result: expected row
// count plus per-column distinct-value estimates.
type CardEstimate struct {
	Rows     float64
	Distinct map[string]float64
}

// ineqSelectivity is the assumed fraction of rows passing an ordered
// comparison against a constant (the textbook 1/3).
const ineqSelectivity = 1.0 / 3.0

// EstimateCardinality estimates the number of result tuples of a plan.
// Unknown operators estimate conservatively (no reduction). Callers
// issuing many estimates against one database (the optimizer's greedy
// join ordering is quadratic in the join width) should reuse an
// Estimator, which computes each base table's statistics once.
func EstimateCardinality(p Plan, db *pvc.Database) float64 {
	return Estimate(p, db).Rows
}

// Estimate computes the full cardinality estimate of a plan, with
// per-column distinct counts where derivable.
func Estimate(p Plan, db *pvc.Database) CardEstimate {
	return NewEstimator(db).Estimate(p)
}

// Estimator estimates plan cardinalities over one database, memoising
// the statistics of provider-backed tables across calls (an in-memory
// relation caches its own, pvc.Relation.Stats). Safe for concurrent use:
// the stats memo is mutex-guarded, so one Estimator can serve many
// goroutines — the query service optimizes and estimates cached plans
// concurrently.
// The returned CardEstimate values (including their Distinct maps) must
// be treated as read-only by callers. The database must not gain or lose
// tuples while the Estimator is in use.
type Estimator struct {
	db *pvc.Database
	mu sync.Mutex
	// scans memoises per-provider statistics. Guarded by mu; the stored
	// estimates are never mutated after insertion, so returning them
	// outside the lock is safe.
	scans map[string]CardEstimate
}

// NewEstimator returns an Estimator with an empty statistics cache.
func NewEstimator(db *pvc.Database) *Estimator {
	return &Estimator{db: db, scans: map[string]CardEstimate{}}
}

// Estimate computes the cardinality estimate of a plan.
func (e *Estimator) Estimate(p Plan) CardEstimate {
	db := e.db
	switch n := p.(type) {
	case *Scan:
		// The lock covers the scan computation too, so concurrent
		// estimates of the same cold table do the full-table stats scan
		// once instead of racing to duplicate it.
		e.mu.Lock()
		defer e.mu.Unlock()
		if est, ok := e.scans[n.Table]; ok {
			return est
		}
		if p, ok := db.Provider(n.Table); ok {
			est := providerEstimate(p)
			e.scans[n.Table] = est
			return est
		}
		rel, err := db.Relation(n.Table)
		if err != nil {
			return CardEstimate{Rows: 1, Distinct: map[string]float64{}}
		}
		return scanEstimate(rel) // cached on the relation itself
	case *Rename:
		in := e.Estimate(n.Input)
		out := CardEstimate{Rows: in.Rows, Distinct: make(map[string]float64, len(in.Distinct))}
		for c, d := range in.Distinct {
			if c == n.From {
				c = n.To
			}
			out.Distinct[c] = d
		}
		return out
	case *Select:
		in := e.Estimate(n.Input)
		rows := in.Rows
		for _, a := range n.Pred.Atoms {
			rows *= atomSelectivity(a, in)
		}
		return clampDistinct(CardEstimate{Rows: rows, Distinct: in.Distinct})
	case *Project:
		in := e.Estimate(n.Input)
		// π collapses duplicates: at most the product of the projected
		// columns' distinct counts.
		limit := 1.0
		for _, c := range n.Cols {
			limit *= distinctOr(in, c, in.Rows)
			if limit >= in.Rows {
				limit = in.Rows
				break
			}
		}
		return clampDistinct(CardEstimate{Rows: min(in.Rows, limit), Distinct: only(in.Distinct, n.Cols)})
	case *Prune:
		in := e.Estimate(n.Input)
		return CardEstimate{Rows: in.Rows, Distinct: only(in.Distinct, n.Cols)}
	case *Product:
		l, r := e.Estimate(n.L), e.Estimate(n.R)
		return CardEstimate{Rows: finite(l.Rows * r.Rows), Distinct: merged(l.Distinct, r.Distinct)}
	case *Join:
		l, r := e.Estimate(n.L), e.Estimate(n.R)
		rows := finite(l.Rows * r.Rows)
		for c := range l.Distinct {
			if rd, ok := r.Distinct[c]; ok {
				if d := max(l.Distinct[c], rd); d > 0 {
					rows /= d
				}
			}
		}
		return clampDistinct(CardEstimate{Rows: rows, Distinct: merged(l.Distinct, r.Distinct)})
	case *Union:
		l, r := e.Estimate(n.L), e.Estimate(n.R)
		out := CardEstimate{Rows: finite(l.Rows + r.Rows), Distinct: make(map[string]float64, len(l.Distinct))}
		for c, d := range l.Distinct {
			out.Distinct[c] = d + r.Distinct[c]
		}
		return out
	case *GroupAgg:
		in := e.Estimate(n.Input)
		if len(n.GroupBy) == 0 {
			return CardEstimate{Rows: 1, Distinct: map[string]float64{}}
		}
		groups := 1.0
		for _, g := range n.GroupBy {
			groups *= distinctOr(in, g, in.Rows)
			if groups >= in.Rows {
				groups = in.Rows
				break
			}
		}
		out := CardEstimate{Rows: min(groups, in.Rows), Distinct: map[string]float64{}}
		for _, g := range n.GroupBy {
			out.Distinct[g] = distinctOr(in, g, in.Rows)
		}
		return clampDistinct(out)
	default:
		return CardEstimate{Rows: 1, Distinct: map[string]float64{}}
	}
}

// providerEstimate loads base-table statistics for a provider-backed
// scan: persisted stats when the backend serves them (no scan at all),
// otherwise an exact full streaming scan mirroring scanEstimate.
func providerEstimate(p pvc.TableProvider) CardEstimate {
	if sp, ok := p.(pvc.StatsProvider); ok {
		if ts, ok := sp.TableStats(); ok {
			out := CardEstimate{Rows: ts.Rows, Distinct: make(map[string]float64, len(ts.Distinct))}
			for c, d := range ts.Distinct {
				out.Distinct[c] = d
			}
			return out
		}
	}
	schema := p.Schema()
	it, err := p.NewScan(context.Background(), pvc.ScanOptions{})
	if err != nil {
		return CardEstimate{Rows: 1, Distinct: map[string]float64{}}
	}
	defer it.Close()
	seen := make([]map[string]bool, len(schema))
	for i, col := range schema {
		if col.Type != pvc.TModule {
			seen[i] = map[string]bool{}
		}
	}
	rows := 0.0
	var key []byte
	for {
		// The scan lends t's cells; only their keys — fresh strings, one
		// per distinct value — outlive the row.
		t, ok, err := it.Next()
		if err != nil {
			return CardEstimate{Rows: 1, Distinct: map[string]float64{}}
		}
		if !ok {
			break
		}
		rows++
		for i := range schema {
			if seen[i] != nil {
				key = t.Cells[i].AppendKey(key[:0])
				if !seen[i][string(key)] {
					seen[i][string(key)] = true
				}
			}
		}
	}
	out := CardEstimate{Rows: rows, Distinct: make(map[string]float64, len(schema))}
	for i, col := range schema {
		if seen[i] != nil {
			out.Distinct[col.Name] = float64(len(seen[i]))
		}
	}
	return out
}

// scanEstimate reads row and distinct counts off a stored relation's
// cached statistics (pvc.Relation.Stats), so only the first query over a
// table pays the pass over its cells.
func scanEstimate(rel *pvc.Relation) CardEstimate {
	st := rel.Stats()
	return CardEstimate{Rows: float64(st.Rows), Distinct: st.Distinct}
}

// atomSelectivity estimates the fraction of rows one comparison keeps.
// Comparisons that involve an aggregation column keep every row (they
// rewrite the annotation instead of filtering).
func atomSelectivity(a Atom, in CardEstimate) float64 {
	d, ok := in.Distinct[a.Left]
	if !ok || d <= 0 {
		// Unknown column stats — likely a module column; no filtering.
		return 1
	}
	switch a.Th {
	case value.EQ:
		if a.RightCol != "" {
			if rd, rok := in.Distinct[a.RightCol]; rok {
				return 1 / max(1, max(d, rd))
			}
			return 1
		}
		return 1 / max(1, d)
	case value.NE:
		return (max(1, d) - 1) / max(1, d)
	default:
		return ineqSelectivity
	}
}

// finite clamps a row count that overflowed to +Inf back to the largest
// float: a wide cross product must stay orderable for the optimizer and
// encodable in EXPLAIN, and a later selectivity of 0 must give 0, not NaN.
func finite(rows float64) float64 { return min(rows, math.MaxFloat64) }

func distinctOr(in CardEstimate, col string, def float64) float64 {
	if d, ok := in.Distinct[col]; ok && d > 0 {
		return d
	}
	return max(1, def)
}

// clampDistinct caps every distinct count at the estimated row count.
func clampDistinct(e CardEstimate) CardEstimate {
	out := CardEstimate{Rows: e.Rows, Distinct: make(map[string]float64, len(e.Distinct))}
	for c, d := range e.Distinct {
		out.Distinct[c] = min(d, max(1, e.Rows))
	}
	return out
}

// only returns the distinct counts of cols alone: a column π or π̂
// dropped must not count as a join key above it.
func only(d map[string]float64, cols []string) map[string]float64 {
	out := make(map[string]float64, len(cols))
	for _, c := range cols {
		if v, ok := d[c]; ok {
			out[c] = v
		}
	}
	return out
}

func merged(a, b map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(a)+len(b))
	for c, d := range a {
		out[c] = d
	}
	for c, d := range b {
		out[c] = d
	}
	return out
}
