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

// FoldSum is the distribution of the sum of the independent SUM/COUNT
// summands ds under cap: ConvolveSum chained left to right,
// (…((ds[0] + ds[1]) + ds[2]) + …). A single summand is returned itself,
// so the result is the caller's to Recycle only when ds has two or more.
// When FoldCost accepts ds, the partial sum lives in one pooled dense
// window and each summand is folded into it in place, in one pass from the
// top of the window down: new[k] = Σⱼ old[k − eⱼ]·qⱼ over the summand's
// offsets eⱼ ≥ 0, so every cell is read before it is overwritten, and
// under a cap the cells at and past the overflow cell fold into it at
// every step, as ConvolveSum clamps every partial sum. A cell adds its
// terms in ascending order of the old cell they come from, the overflow
// cell row by row, as ConvolveSum does, so the result is the chain's bit
// for bit whenever ds[0] needs no clamping (the evaluator's summands,
// capped themselves, never do). Where FoldCost refuses ds, FoldSum chains
// ConvolveSum, recycling each partial sum once the next is made; the
// summands stay the caller's.
func FoldSum(ds []Dist, cap *Cap) Dist {
	if len(ds) == 1 {
		return ds[0]
	}
	width, _, ok := foldPlan(ds, cap)
	if !ok {
		out := ConvolveSum(ds[0], ds[1], cap)
		for _, d := range ds[2:] {
			next := ConvolveSum(out, d, cap)
			Recycle(out)
			out = next
		}
		return out
	}
	capped := cap != nil && cap.Above
	acc := getDense(0)
	acc.window(0, width)
	w := acc.probs
	// Cell k of the window holds the probability of base + k; lo and hi
	// are the running sums of the summands' least and greatest values.
	var base, lo, hi int64
	wo := 0 // the window's width before the summand being folded
	for i, d := range ds {
		dlo, dhi := d.pairs[0].V.Int64(), d.pairs[len(d.pairs)-1].V.Int64()
		lo, hi = lo+dlo, hi+dhi // foldPlan has checked they do not wrap
		nb, top, clamped := lo, hi, false
		if capped && cap.Limit.Int64() < hi {
			top, clamped = cap.Limit.Int64()+1, true
			nb = min(nb, top)
		}
		wn := int(top-nb) + 1
		if i == 0 {
			for _, p := range d.pairs {
				w[min(p.V.Int64(), top)-nb] += p.P
			}
			base, wo = nb, wn
			continue
		}
		// The summand's offsets eⱼ: the window index of old cell k plus
		// value vⱼ is k + eⱼ. shift is 0 unless the whole window has
		// collapsed into the overflow cell.
		shift := base + dlo - nb
		e, q := acc.off[:0], acc.bp[:0]
		for _, p := range d.pairs {
			e = append(e, uint64(shift+(p.V.Int64()-dlo)))
			q = append(q, p.P)
		}
		acc.off, acc.bp = e, q
		last := wn - 1 // the last cell a plain tap writes
		var over float64
		if clamped {
			// The overflow cell takes every old cell k and tap j with
			// k + eⱼ ≥ last, row by row as ConvolveSum adds them; it is
			// summed before the pass below overwrites any of them.
			j0 := len(e) // taps j0… reach the overflow cell from row k
			for k := max(0, last-int(min(e[len(e)-1], uint64(last)))); k < wo; k++ {
				for j0 > 0 && (k >= last || e[j0-1] >= uint64(last-k)) {
					j0--
				}
				for j := j0; j < len(e); j++ {
					over += float64(w[k] * q[j])
				}
			}
			last--
		}
		if len(e) == 2 {
			foldTwo(w, last, wo, int(min(e[0], uint64(wn))), int(min(e[1], uint64(wn))), q[0], q[1])
		} else {
			foldTaps(w, last, wo, e, q)
		}
		if clamped {
			w[wn-1] = over
		}
		if wn < wo {
			clear(w[wn:wo]) // a window that moved up under a cap
		}
		base, wo = nb, wn
	}
	acc.probs, acc.base = w[:wo], base
	d := acc.emit()
	putDense(acc)
	return d
}

// foldTwo is the pass of FoldSum for a two-point summand, taps e0 < e1:
// w[k] = w[k−e1]·q1 + w[k−e0]·q0 for k = last down to 0, each term only
// where its index lies in the old window [0, wo) — which splits the pass
// into runs, from the top: tap 1 alone, neither (when e1 − e0 exceeds the
// window), both, tap 0 alone, neither. float64(·) forbids fusing a
// multiply into an add, so the rounding is ConvolveSum's everywhere.
func foldTwo(w []float64, last, wo, e0, e1 int, q0, q1 float64) {
	top0 := e0 + wo - 1 // the last index tap 0 reaches
	k := last
	for ; k > top0 && k >= e1; k-- {
		w[k] = float64(w[k-e1] * q1)
	}
	for ; k > top0; k-- {
		w[k] = 0
	}
	if k >= e1 {
		out := w[e1 : k+1]
		a, b := w[:len(out)], w[e1-e0:][:len(out)]
		for i := len(out) - 1; i >= 0; i-- {
			out[i] = float64(a[i]*q1) + float64(b[i]*q0)
		}
		k = e1 - 1
	}
	for ; k >= e0; k-- {
		w[k] = float64(w[k-e0] * q0)
	}
	clear(w[:k+1])
}

// foldTaps is foldTwo for any number of taps, ascending: the taps that
// reach cell k from the old window, k − wo < eⱼ ≤ k, are a run [lo, hi)
// whose ends only fall as k does.
func foldTaps(w []float64, last, wo int, e []uint64, q []float64) {
	lo, hi := len(e), len(e)
	for k := last; k >= 0; k-- {
		for hi > 0 && e[hi-1] > uint64(k) {
			hi--
		}
		for lo > 0 && e[lo-1]+uint64(wo) > uint64(k) {
			lo--
		}
		var v float64
		for j := hi - 1; j >= lo; j-- {
			v += float64(w[uint64(k)-e[j]] * q[j])
		}
		w[k] = v
	}
}

// FoldCost is what FoldSum would sweep folding ds under cap: the window's
// width after each summand times the summand's size, summed. ok is false
// when FoldSum would chain ConvolveSum instead: a summand that is empty or
// has an infinite end value, a cap with an infinite limit or over a
// negative value (clamping every partial sum is then not clamping the
// whole), a sum of end values beyond int64, or a window wider than the
// dense accumulator's.
func FoldCost(ds []Dist, cap *Cap) (cost int, ok bool) {
	_, cost, ok = foldPlan(ds, cap)
	return cost, ok
}

// foldPlan is FoldCost, and the widest window of the fold.
func foldPlan(ds []Dist, cap *Cap) (width, cost int, ok bool) {
	capped := cap != nil && cap.Above
	if capped && !cap.Limit.IsInt() {
		return 0, 0, false
	}
	var lo, hi int64
	for _, d := range ds {
		if len(d.pairs) == 0 {
			return 0, 0, false
		}
		a, b := d.pairs[0].V, d.pairs[len(d.pairs)-1].V
		if !a.IsInt() || !b.IsInt() || (capped && a.Int64() < 0) {
			return 0, 0, false
		}
		var okLo, okHi bool
		lo, okLo = addInt64(lo, a.Int64())
		hi, okHi = addInt64(hi, b.Int64())
		if !okLo || !okHi {
			return 0, 0, false
		}
		wlo, whi := lo, hi
		if capped && cap.Limit.Int64() < whi {
			whi = cap.Limit.Int64() + 1
			wlo = min(wlo, whi)
		}
		if uint64(whi)-uint64(wlo) >= maxDenseWidth {
			return 0, 0, false
		}
		w := int(whi-wlo) + 1
		width, cost = max(width, w), cost+w*len(d.pairs)
	}
	return width, cost, true
}

// SumShape is what a cost model reads of a SUM/COUNT distribution: its
// size, and the least value and width of its support's range.
type SumShape struct {
	Size, Width int
	Lo          int64
}

// ShapeOf is the shape of d, a summand FoldCost has accepted.
func ShapeOf(d Dist) SumShape {
	lo, hi := d.pairs[0].V.Int64(), d.pairs[len(d.pairs)-1].V.Int64()
	return SumShape{Size: len(d.pairs), Width: int(hi-lo) + 1, Lo: lo}
}

// Plus estimates the shape of a + b under cap, for summands FoldCost has
// accepted together: the ranges add, a cap collapses what lies above its
// limit into one cell, and the size is the smaller of |a|·|b| and the
// width. (Lo may wrap without a cap, where it is not read; under one the
// summands are non-negative and their sums bounded by what FoldCost
// checked.)
func (a SumShape) Plus(b SumShape, cap *Cap) SumShape {
	s := SumShape{Width: a.Width + b.Width - 1, Lo: a.Lo + b.Lo}
	if cap != nil && cap.Above {
		if hi, l := s.Lo+int64(s.Width)-1, cap.Limit.Int64(); l < hi {
			hi = l + 1
			s.Lo = min(s.Lo, hi)
			s.Width = int(hi-s.Lo) + 1
		}
	}
	s.Size = min(a.Size*b.Size, s.Width)
	return s
}

// addInt64 returns x + y and whether the sum is representable.
func addInt64(x, y int64) (int64, bool) {
	r := x + y // wraps on overflow
	// Overflow iff the operands share a sign the result does not.
	return r, (x^r)&(y^r) >= 0
}
