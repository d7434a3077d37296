package engine

import (
	"math"

	"pvcagg/internal/pvc"
)

// RowBound is an upper bound on the number of tuples plan p emits over
// db, proved from row counts alone: a base table emits its rows; σ, π,
// π̂, δ and a grouped $ at most their input's; ⋈ and × at most the
// product of their inputs'; ∪ at most the sum; an ungrouped $ one. The
// optimizer's build-side choice and EXPLAIN read it. It saturates at
// math.MaxInt64 instead of overflowing.
func RowBound(p Plan, db *pvc.Database) int64 {
	switch n := p.(type) {
	case *Scan:
		if prov, ok := db.Provider(n.Table); ok {
			return prov.Rows()
		}
		if rel, err := db.Relation(n.Table); err == nil {
			return int64(rel.Len())
		}
		return 0 // an unknown table fails to build and emits nothing
	case *Join, *Product:
		l, r := RowBound(Children(p)[0], db), RowBound(Children(p)[1], db)
		if l != 0 && r > math.MaxInt64/l {
			return math.MaxInt64
		}
		return l * r
	case *Union:
		l, r := RowBound(n.L, db), RowBound(n.R, db)
		if l > math.MaxInt64-r {
			return math.MaxInt64
		}
		return l + r
	case *GroupAgg:
		if len(n.GroupBy) == 0 {
			return 1
		}
	}
	return RowBound(Children(p)[0], db)
}
