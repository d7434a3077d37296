package prob

import "pvcagg/internal/value"

// ConvolveSum is Convolve for the SUM/COUNT monoid: the distribution of
// a + b for independent a, b, with the same cap semantics. When both
// supports are finite integers whose sums cannot overflow and span a
// window the dense accumulator would accept anyway, the output index of
// every cross-product cell is plain integer arithmetic, so the kernel
// adds straight into the pooled window — no Op call, Key or window-growth
// check per cell. Everything else falls through to Convolve. The loop
// order is the reference's (outer a, inner b), so collision sums fold in
// the same order and the result is bit-for-bit convolveRef's.
func ConvolveSum(a, b Dist, cap *Cap) Dist {
	if len(a.pairs) == 0 || len(b.pairs) == 0 {
		return Dist{}
	}
	base, width, ok := sumWindow(a.pairs, b.pairs, cap)
	if !ok {
		return Convolve(a, b, value.V.Add, cap)
	}
	acc := getDense(len(a.pairs) * len(b.pairs))
	acc.window(base, width)
	out := acc.probs
	top := uint64(width - 1) // the cap's overflow cell when the cap bites

	// Stage b once as flat (offset from b's smallest value, probability)
	// columns in the accumulator's pooled scratch. Index arithmetic is
	// done in uint64: every true index lies in [0, 2⁶⁴), so wrapping
	// intermediate results are exact even for operands near ±2⁶³.
	bp, off := acc.bp[:0], acc.off[:0]
	b0 := uint64(b.pairs[0].V.Int64())
	for _, pb := range b.pairs {
		bp = append(bp, pb.P)
		off = append(off, uint64(pb.V.Int64())-b0)
	}
	acc.bp, acc.off = bp, off
	m := uint64(len(bp))
	span := off[m-1]
	rel := b0 - uint64(base) // (a's value + rel) is the row's first index

	for _, pa := range a.pairs {
		row := uint64(pa.V.Int64()) + rel
		p := pa.P
		// float64(·) forbids fusing the multiply into the add, so the
		// rounding is the generic kernel's on every architecture.
		switch {
		case row+span > top:
			// Only a capped window is narrower than its sums: this row
			// reaches the overflow cell, which takes every cell from the
			// first clamped one on (b is sorted), one after the other.
			j := 0
			for ; j < len(bp) && row+off[j] < top; j++ {
				out[row+off[j]] += float64(p * bp[j])
			}
			over := out[top]
			for _, q := range bp[j:] {
				over += float64(p * q)
			}
			out[top] = over
		case span == m-1:
			// b's support is contiguous: the row is a slice of the window.
			w := out[row : row+m]
			for j, q := range bp {
				w[j] += float64(p * q)
			}
		default:
			for j, q := range bp {
				out[row+off[j]] += float64(p * q)
			}
		}
	}
	d := acc.emit()
	putDense(acc)
	return d
}

// sumWindow returns the window [base, base+width) that holds every
// (capped) sum of a value of a and a value of b, or ok = false when the
// dense kernel does not apply: an infinite operand value or cap limit, a
// sum that could overflow int64, or a window wider than the dense
// accumulator's budget for this many cells (the test getDense applies).
// Supports are sorted, so the end pairs bound every sum.
func sumWindow(a, b []Pair, cap *Cap) (base int64, width int, ok bool) {
	a0, an, b0, bm := a[0].V, a[len(a)-1].V, b[0].V, b[len(b)-1].V
	if !a0.IsInt() || !an.IsInt() || !b0.IsInt() || !bm.IsInt() {
		return 0, 0, false
	}
	lo, okLo := addInt64(a0.Int64(), b0.Int64())
	hi, okHi := addInt64(an.Int64(), bm.Int64())
	if !okLo || !okHi {
		return 0, 0, false
	}
	if cap != nil && cap.Above {
		if !cap.Limit.IsInt() {
			return 0, 0, false
		}
		// Sums above Limit collapse to Limit+1 (Cap.clamp), which may lie
		// below every uncapped sum.
		if l := cap.Limit.Int64(); l < hi {
			hi = l + 1
			lo = min(lo, hi)
		}
	}
	w := uint64(hi) - uint64(lo) // exact: hi ≥ lo
	if w >= uint64(denseBudget(len(a)*len(b))) {
		return 0, 0, false
	}
	return lo, int(w) + 1, true
}

// addInt64 returns x + y and whether the sum is representable.
func addInt64(x, y int64) (int64, bool) {
	r := x + y // wraps on overflow
	// Overflow iff the operands share a sign the result does not.
	return r, (x^r)&(y^r) >= 0
}
