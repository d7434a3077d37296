package opt

// Physical pass: choose the hash-join build side for the streaming
// execution layer. The engine's pairIter always materializes its RIGHT
// input as the hash-table build side and probes the left lazily, so this
// pass commutes a ⋈ whose left input has the smaller row bound
// (engine.RowBound) — putting it in the build position — and restores
// the original column order with a π̂. Commuting a natural join permutes
// the factors of every annotation product, which preserves probabilities
// exactly in real arithmetic (the same documented exception as the
// structural join order); the differential suite pins it bit-for-bit on
// dyadic marginals.

import (
	"pvcagg/internal/engine"
	"pvcagg/internal/pvc"
)

// BuildSideThreshold is the build side's row bound below which
// buildSides leaves a join alone: commuting tiny joins cannot pay for
// the extra π̂, and keeping small plans untouched preserves existing
// pinned plan renderings. Tests lower it to force the rewrite.
var BuildSideThreshold int64 = 64

// buildSides rewrites every ⋈ so the input with the smaller row bound
// sits on the right — the side the streaming hash join builds. Children
// first, so bounds see the final subtrees.
func buildSides(p engine.Plan, db *pvc.Database) engine.Plan {
	switch n := p.(type) {
	case *engine.Join:
		j := &engine.Join{L: buildSides(n.L, db), R: buildSides(n.R, db)}
		l, r := engine.RowBound(j.L, db), engine.RowBound(j.R, db)
		if l >= r || r < BuildSideThreshold {
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
		return engine.MapChildren(p, func(c engine.Plan) engine.Plan { return buildSides(c, db) })
	}
}
