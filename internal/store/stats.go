package store

import (
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// annClass reports whether an annotation is the constant 1S or 0S; a
// block whose rows are all 0S is marked AllZero in the block index, and
// one whose rows are all 1S is written as a one-byte segment.
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
