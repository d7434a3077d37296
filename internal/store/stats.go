package store

import (
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// annSummary summarizes the annotation column of one block, enough to
// decide that the block cannot contribute: AllZero means every row is
// annotated with the constant 0S (so a σ above the scan would drop every
// row); AllOne means every row carries the constant 1S (deterministic
// data, the common TPC-H case).
type annSummary struct {
	AllOne  bool
	AllZero bool
}

// annClass classifies one annotation for summarization and returns its
// (one, zero) nature; non-constant annotations are neither.
func annClass(ann expr.Expr) (one, zero bool) {
	if c, ok := ann.(expr.Const); ok {
		return c.V.IsOne(), c.V.IsZero()
	}
	return false, false
}

// blockMayMatch reports whether a block whose column zone maps are
// mins/maxs can contain a row satisfying the hint. Unknown (out of
// range) columns conservatively match. Cells compare with pvc.Cell's
// total order, so mixed-kind comparisons behave exactly like the σ
// evaluation they mirror. A constant right operand is the degenerate
// zone [c, c].
func blockMayMatch(h pvc.ScanHint, mins, maxs []pvc.Cell) bool {
	if h.Col < 0 || h.Col >= len(mins) {
		return true
	}
	lmin, lmax := mins[h.Col], maxs[h.Col]
	var rmin, rmax pvc.Cell
	switch {
	case h.Cell != nil:
		rmin, rmax = *h.Cell, *h.Cell
	case h.RightCol >= 0 && h.RightCol < len(mins):
		rmin, rmax = mins[h.RightCol], maxs[h.RightCol]
	default:
		return true
	}
	switch h.Th {
	case value.LT, value.LE:
		return lmin.Satisfies(h.Th, rmax)
	case value.GT, value.GE:
		return lmax.Satisfies(h.Th, rmin)
	case value.EQ:
		return lmin.Satisfies(value.LE, rmax) && lmax.Satisfies(value.GE, rmin)
	case value.NE:
		// Fails only when both zones are the same single point.
		return lmin.Satisfies(value.NE, lmax) || rmin.Satisfies(value.NE, rmax) || lmin.Satisfies(value.NE, rmin)
	}
	return true
}
