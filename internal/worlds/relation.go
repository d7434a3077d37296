package worlds

import (
	"fmt"

	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
)

// TupleTruth is the brute-force ground truth for one result tuple of a
// pvc-table: the confidence of its annotation and the exact marginal
// distribution of every aggregation column, computed by possible-worlds
// enumeration (Eq. (3)). It is the reference the differential test
// harness compares the compiled (sequential and parallel) outcomes of
// engine.Outcomes against.
type TupleTruth struct {
	Confidence float64
	// AggDists holds one distribution per TModule column of the schema,
	// in schema order.
	AggDists []prob.Dist
}

// RelationTruth enumerates, for every tuple of rel, the possible worlds
// of its annotation and of each aggregation cell. Exponential in the
// per-tuple variable count; use on small instances only.
func RelationTruth(db *pvc.Database, rel *pvc.Relation) ([]TupleTruth, error) {
	s := db.Semiring()
	moduleCols := rel.Schema.ModuleColumns()
	out := make([]TupleTruth, 0, len(rel.Tuples))
	for _, t := range rel.Tuples {
		d, err := Enumerate(t.Ann, db.Registry, s)
		if err != nil {
			return nil, fmt.Errorf("worlds: annotation of tuple %s: %w", t.Key(), err)
		}
		tt := TupleTruth{Confidence: d.TruthProbability()}
		for _, ci := range moduleCols {
			e, err := t.Cells[ci].ModuleExpr()
			if err != nil {
				return nil, fmt.Errorf("worlds: tuple %s: %w", t.Key(), err)
			}
			ad, err := Enumerate(e, db.Registry, s)
			if err != nil {
				return nil, fmt.Errorf("worlds: aggregation value %s: %w", expr.String(e), err)
			}
			tt.AggDists = append(tt.AggDists, ad)
		}
		out = append(out, tt)
	}
	return out, nil
}
