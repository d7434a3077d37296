package store

import (
	"hash/fnv"
	"sort"

	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// kmvK is the sketch size: distinct counts up to kmvK are exact, larger
// ones are estimated from the k-th minimum hash value.
const kmvK = 1024

// kmv is a k-minimum-values distinct-count sketch over cell keys. It is
// deterministic (FNV-1a, no seed), so re-ingesting the same data yields
// the same persisted statistics.
type kmv struct {
	hs []uint64 // the k smallest distinct hashes, ascending
}

func (s *kmv) add(key string) {
	h := fnv.New64a()
	h.Write([]byte(key))
	v := h.Sum64()
	i := sort.Search(len(s.hs), func(i int) bool { return s.hs[i] >= v })
	if i < len(s.hs) && s.hs[i] == v {
		return
	}
	if len(s.hs) >= kmvK {
		if v >= s.hs[kmvK-1] {
			return
		}
		s.hs = s.hs[:kmvK-1]
	}
	s.hs = append(s.hs, 0)
	copy(s.hs[i+1:], s.hs[i:])
	s.hs[i] = v
}

// estimate returns the distinct-count estimate: exact while fewer than k
// distinct values have been seen, (k-1)/k-th-minimum-fraction beyond.
func (s *kmv) estimate() float64 {
	if len(s.hs) < kmvK {
		return float64(len(s.hs))
	}
	frac := float64(s.hs[kmvK-1]) / float64(1<<63) / 2
	if frac <= 0 {
		return float64(kmvK)
	}
	return float64(kmvK-1) / frac
}

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
