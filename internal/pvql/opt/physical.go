package opt

// Physical pass: choose the hash-join build side for the streaming
// execution layer. The engine's pairIter always materializes its RIGHT
// input as the hash-table build side and probes the left lazily, so this
// pass commutes a ⋈ whose left input is estimated smaller — putting the
// smaller relation in the build position — and restores the original
// column order with a π̂. Commuting a natural join permutes the factors
// of every annotation product, which preserves probabilities exactly in
// real arithmetic (the same documented exception as greedy join
// reordering); the differential suite pins it bit-for-bit on dyadic
// marginals.

import (
	"pvcagg/internal/engine"
	"pvcagg/internal/pvc"
)

// BuildSideThreshold is the estimated build-side cardinality below which
// buildSides leaves a join alone: commuting tiny joins cannot pay for
// the extra π̂, and keeping small plans untouched preserves existing
// pinned plan renderings. Tests lower it to force the rewrite.
var BuildSideThreshold = 64.0

// buildSides rewrites every ⋈ so its smaller input (by estimated
// cardinality) sits on the right — the side the streaming hash join
// builds. Children first, so estimates see the final subtrees.
func buildSides(p engine.Plan, db *pvc.Database, est *engine.Estimator) engine.Plan {
	switch n := p.(type) {
	case *engine.Join:
		j := &engine.Join{L: buildSides(n.L, db, est), R: buildSides(n.R, db, est)}
		lRows := est.Estimate(j.L).Rows
		rRows := est.Estimate(j.R).Rows
		if lRows >= rRows || rRows < BuildSideThreshold {
			return j
		}
		origSchema, err := engine.InferSchema(j, db)
		if err != nil {
			return j
		}
		flipped := &engine.Join{L: j.R, R: j.L}
		newSchema, err := engine.InferSchema(flipped, db)
		if err != nil {
			return j
		}
		if origSchema.Equal(newSchema) {
			return flipped
		}
		return &engine.Prune{Input: flipped, Cols: origSchema.Names()}
	default:
		return engine.MapChildren(p, func(c engine.Plan) engine.Plan { return buildSides(c, db, est) })
	}
}
