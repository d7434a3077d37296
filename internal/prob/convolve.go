package prob

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"pvcagg/internal/value"
)

// This file implements Proposition 1 and its instantiations Eqs. (4)–(10):
// the distribution of x • y for *independent* random variables x, y is the
// convolution of their distributions with respect to •. All operations run
// in time linear in the product of the input sizes (Theorem 2's per-node
// cost), optionally capping output values to bound the result size (the
// pruning optimisation of Section 5).
//
// The kernels exploit the value-sorted representation instead of
// accumulating into a freshly-allocated map and re-sorting (the original
// implementation, kept below as convolveRef etc. for the differential
// kernel tests): Convolve accumulates into a pooled dense float window
// indexed by the (integer) output value — O(1) per cross-product cell and
// the emitted pairs come out sorted for free, which is exactly the shape
// of the capped SUM/COUNT convolutions that dominate TPC-H-style
// workloads — spilling to a pooled map when the output support is sparse
// or non-integer-dense; Map collects into a pooled scratch buffer,
// stable-sorts and folds; Mixture is a k-way merge of the already-sorted
// branch distributions; and CmpConvolve walks the sorted operands with
// running prefix masses in O(|a| + |b|) instead of materialising the
// |a|·|b| cross product.
//
// Collision sums are accumulated in the same encounter order as the
// map-based reference kernels, so Convolve, Map and Mixture are
// bit-for-bit identical to the reference; CmpConvolve regroups the
// summation and may differ in the last ulp, which the prefix-mass
// restructure makes unavoidable below O(n·m).

// Op is a binary operation on carrier values used as the • of Prop. 1.
type Op func(a, b value.V) value.V

// pairBufPool recycles the scratch buffers the kernels accumulate into;
// convolution runs once per d-tree node, so pooling removes the dominant
// per-node allocation.
var pairBufPool = sync.Pool{
	New: func() any {
		s := make([]Pair, 0, 1024)
		return &s
	},
}

func getPairBuf() *[]Pair  { return pairBufPool.Get().(*[]Pair) }
func putPairBuf(b *[]Pair) { *b = (*b)[:0]; pairBufPool.Put(b) }

// accumulate sorts the scratch pairs by value (stably, so collision sums
// fold in encounter order) and merges equal values into a fresh
// exact-sized Dist, dropping empty entries per dropBelow. Already-sorted
// buffers (the common case: Map over a sorted Dist with a monotone
// function) skip the sort entirely; small buffers use a stable insertion
// sort, avoiding sort.SliceStable's per-call swapper allocation.
func accumulate(buf []Pair) Dist {
	sorted := true
	for i := 1; i < len(buf); i++ {
		if buf[i].V.Less(buf[i-1].V) {
			sorted = false
			break
		}
	}
	switch {
	case sorted:
	case len(buf) <= 48:
		// Insertion sort is stable: equal values keep encounter order.
		for i := 1; i < len(buf); i++ {
			for j := i; j > 0 && buf[j].V.Less(buf[j-1].V); j-- {
				buf[j], buf[j-1] = buf[j-1], buf[j]
			}
		}
	default:
		sort.SliceStable(buf, func(i, j int) bool { return buf[i].V.Less(buf[j].V) })
	}
	k := 0
	for i := 0; i < len(buf); {
		v := buf[i].V
		acc := buf[i].P
		j := i + 1
		for j < len(buf) && !v.Less(buf[j].V) {
			acc += buf[j].P
			j++
		}
		if acc > dropBelow {
			buf[k] = Pair{v, acc}
			k++
		}
		i = j
	}
	out := make([]Pair, k)
	copy(out, buf[:k])
	return Dist{out}
}

// denseAcc accumulates probabilities into a float window indexed by the
// integer output value, with side buckets for ±∞. Touched-but-zero and
// untouched cells are indistinguishable, which is exactly dropBelow's
// contract (both are dropped). The window is pooled and re-zeroed on
// emit, so steady-state convolution does not allocate beyond the result.
type denseAcc struct {
	probs          []float64 // window covers values [base, base+len)
	base           int64
	used           bool
	maxWidth       int
	negInf, posInf float64
	// Scratch of ConvolveSum (one operand staged as flat columns), pooled
	// with the window.
	bp  []float64
	off []uint64
}

// maxDenseWidth bounds the pooled window (1 MiB of float64s); supports
// wider than this spill to the map path.
const maxDenseWidth = 1 << 17

var densePool = sync.Pool{New: func() any { return &denseAcc{probs: make([]float64, 0, 2048)} }}

// denseBudget is the widest window worth using for a convolution of the
// given number of cross-product cells: a window much wider than the cells
// accumulated into it would make the O(width) emit scan dominate, so such
// sparse supports take the map path instead.
func denseBudget(cells int) int {
	return min(max(4*cells, 1024), maxDenseWidth)
}

func getDense(cells int) *denseAcc {
	d := densePool.Get().(*denseAcc)
	d.used = false
	d.negInf, d.posInf = 0, 0
	d.maxWidth = denseBudget(cells)
	return d
}

// window sets the accumulator to the all-zero window [base, base+width),
// for callers that know the output range up front and index probs directly.
func (d *denseAcc) window(base int64, width int) {
	if width > cap(d.probs) {
		// Power-of-two capacities, so a pooled window is regrown rarely.
		d.probs = make([]float64, width, 1<<bits.Len(uint(width-1)))
	}
	// The backing array beyond len(probs) is zero (see tryAdd).
	d.probs = d.probs[:width]
	d.base, d.used = base, true
}

func putDense(d *denseAcc) {
	clear(d.probs)
	densePool.Put(d)
}

// tryAdd accumulates p on v, growing the window as needed; it reports
// false when v would push the window past maxWidth (caller spills to map).
func (d *denseAcc) tryAdd(v value.V, p float64) bool {
	switch {
	case v.IsPosInf():
		d.posInf += p
		return true
	case v.IsNegInf():
		d.negInf += p
		return true
	}
	n := v.Int64()
	if !d.used {
		d.used = true
		d.base = n
		d.probs = d.probs[:1]
		d.probs[0] = p
		return true
	}
	idx := n - d.base
	if idx >= 0 && idx < int64(len(d.probs)) {
		d.probs[idx] += p
		return true
	}
	lo, hi := d.base, d.base+int64(len(d.probs))
	if hi < d.base {
		return false // base+len overflows (window pinned at MaxInt64); spill
	}
	if n < lo {
		lo = n
	}
	if n >= hi {
		if n == math.MaxInt64 {
			return false // n+1 is unrepresentable; spill
		}
		hi = n + 1
	}
	width := hi - lo
	// width <= 0 can only happen by int64 overflow (hi > lo always holds);
	// treat such astronomically wide supports as a spill, like any other
	// over-budget window, instead of slicing with a negative length.
	if width <= 0 || width > int64(d.maxWidth) {
		return false
	}
	// Grow with doubling headroom so repeated window extensions amortise.
	// Invariant: the backing array beyond len(probs) is zero (allocations
	// are zeroed and putDense clears the final window), so extending the
	// length exposes clean cells; only a downward shift dirties the head.
	oldLen := int64(len(d.probs))
	shift := d.base - lo // ≥ 0; > 0 when extending downward
	newCap := int64(cap(d.probs))
	if newCap == 0 {
		newCap = 1024
	}
	for newCap < width {
		newCap *= 2
	}
	if newCap > int64(cap(d.probs)) {
		grown := make([]float64, width, newCap)
		copy(grown[shift:], d.probs)
		d.probs = grown
	} else {
		d.probs = d.probs[:width]
		if shift > 0 {
			copy(d.probs[shift:shift+oldLen], d.probs[:oldLen])
			clear(d.probs[:shift])
		}
	}
	d.base = lo
	d.probs[n-lo] += p
	return true
}

// spillTo moves the accumulated window into m, preserving the per-value
// partial sums (and therefore the overall accumulation order).
func (d *denseAcc) spillTo(m map[value.V]float64) {
	if d.negInf != 0 {
		m[value.NegInf()] = d.negInf
	}
	if d.posInf != 0 {
		m[value.PosInf()] = d.posInf
	}
	if !d.used {
		return
	}
	for i, p := range d.probs {
		if p != 0 {
			m[value.Int(d.base+int64(i))] = p
		}
	}
}

// emit extracts the accumulated distribution; the window is scanned in
// ascending value order, so the result is sorted by construction.
func (d *denseAcc) emit() Dist {
	k := 0
	if d.negInf > dropBelow {
		k++
	}
	if d.posInf > dropBelow {
		k++
	}
	for _, p := range d.probs {
		if p > dropBelow {
			k++
		}
	}
	out := make([]Pair, 0, k)
	if d.negInf > dropBelow {
		out = append(out, Pair{value.NegInf(), d.negInf})
	}
	for i, p := range d.probs {
		if p > dropBelow {
			out = append(out, Pair{value.Int(d.base + int64(i)), p})
		}
	}
	if d.posInf > dropBelow {
		out = append(out, Pair{value.PosInf(), d.posInf})
	}
	return Dist{out}
}

// spillMapPool recycles the maps of the sparse-support spill path.
var spillMapPool = sync.Pool{New: func() any { return make(map[value.V]float64, 64) }}

// Convolve computes the distribution of a • b for independent a, b
// (Eq. (1)). The cap, if non-nil, maps output values to a canonical
// representative (see Cap); it must be the identity on values the caller
// still distinguishes.
func Convolve(a, b Dist, op Op, cap *Cap) Dist {
	if len(a.pairs) == 0 || len(b.pairs) == 0 {
		return Dist{}
	}
	acc := getDense(len(a.pairs) * len(b.pairs))
	var m map[value.V]float64
	for _, pa := range a.pairs {
		for _, pb := range b.pairs {
			v := op(pa.V, pb.V).Key()
			if cap != nil {
				v = cap.clamp(v)
			}
			p := pa.P * pb.P
			if m != nil {
				m[v] += p
				continue
			}
			if !acc.tryAdd(v, p) {
				m = spillMapPool.Get().(map[value.V]float64)
				acc.spillTo(m)
				m[v] += p
			}
		}
	}
	if m != nil {
		putDense(acc)
		d := fromMap(m)
		clear(m)
		spillMapPool.Put(m)
		return d
	}
	d := acc.emit()
	putDense(acc)
	return d
}

// Map applies a unary function to the values of d, merging collisions.
func Map(d Dist, f func(value.V) value.V) Dist {
	bufp := getPairBuf()
	buf := *bufp
	for _, p := range d.pairs {
		buf = append(buf, Pair{f(p.V).Key(), p.P})
	}
	out := accumulate(buf)
	*bufp = buf
	putPairBuf(bufp)
	return out
}

// Mixture computes Eq. (10): the distribution of a ⊔-node, i.e. the
// weighted sum Σ_i w_i · d_i of mutually exclusive branch distributions.
// Weights must be non-negative; for an exhaustive ⊔ they sum to 1. The
// branches are value-sorted, so the mixture is a k-way merge; values are
// canonicalised with Key before merging, so representations that differ
// only in the unused bits of an infinity coalesce (the reference kernel
// accumulated on the raw value and kept such duplicates apart).
func Mixture(branches []Dist, weights []float64) Dist {
	if len(branches) != len(weights) {
		panic("prob: Mixture branch/weight length mismatch")
	}
	for _, w := range weights {
		if w < 0 {
			panic("prob: negative mixture weight")
		}
	}
	// The linear min-scan merge below is O(k) per distinct output value —
	// ideal for the small branch counts of Shannon nodes (a variable's
	// support size, usually 2) but quadratic-ish for huge fan-ins; those
	// route through the map-based reference, which accumulates per value
	// in the identical encounter order (bit-for-bit the same result).
	if len(branches) > 64 {
		return mixtureRef(branches, weights)
	}
	var idxArr [8]int
	idx := idxArr[:0]
	if len(branches) <= len(idxArr) {
		idx = idxArr[:len(branches)]
	} else {
		idx = make([]int, len(branches))
	}
	bufp := getPairBuf()
	buf := *bufp
	for {
		var minV value.V
		found := false
		for i, d := range branches {
			if idx[i] >= len(d.pairs) {
				continue
			}
			v := d.pairs[idx[i]].V
			if !found || v.Less(minV) {
				minV = v
				found = true
			}
		}
		if !found {
			break
		}
		// Accumulate every head equal to minV in branch order (and, within
		// a branch, pair order) — the reference kernel's encounter order.
		acc := 0.0
		for i, d := range branches {
			for idx[i] < len(d.pairs) && d.pairs[idx[i]].V.Cmp(minV) == 0 {
				acc += weights[i] * d.pairs[idx[i]].P
				idx[i]++
			}
		}
		if acc > dropBelow {
			buf = append(buf, Pair{minV.Key(), acc})
		}
	}
	out := make([]Pair, len(buf))
	copy(out, buf)
	*bufp = buf
	putPairBuf(bufp)
	return Dist{out}
}

// CmpConvolve computes Eqs. (8)/(9): the Boolean-semiring distribution of
// the conditional expression [a θ b] for independent a and b. The sorted
// operands are walked with a running prefix mass, so order comparisons and
// equality cost O(|a| + |b|) instead of the naive cross product.
func CmpConvolve(a, b Dist, th value.Theta) Dist {
	var pTrue float64
	switch th {
	case value.LT:
		pTrue = orderMass(a, b, false)
	case value.LE:
		pTrue = orderMass(a, b, true)
	case value.GT:
		pTrue = orderMass(b, a, false)
	case value.GE:
		pTrue = orderMass(b, a, true)
	case value.EQ:
		pTrue = eqMass(a, b)
	case value.NE:
		pTrue = a.Mass()*b.Mass() - eqMass(a, b)
	default:
		return cmpConvolveRef(a, b, th)
	}
	pAll := a.Mass() * b.Mass()
	pFalse := pAll - pTrue
	// The prefix-mass regrouping can leave ulp-sized negatives where the
	// exact result is 0; those are dropped with the zeros, ⊥ (0) before ⊤
	// (1), as FromPairs would.
	out := make([]Pair, 0, 2)
	if pFalse > dropBelow {
		out = append(out, Pair{value.Bool(false), pFalse})
	}
	if pTrue > dropBelow {
		out = append(out, Pair{value.Bool(true), pTrue})
	}
	return Dist{out}
}

// orderMass returns P[x < y] (strict = !orEq) or P[x ≤ y] (orEq) for
// independent x, y by one merge walk: for each y-value in ascending order,
// the mass of x on the satisfying side is a running prefix sum.
func orderMass(x, y Dist, orEq bool) float64 {
	i, cum, total := 0, 0.0, 0.0
	for _, py := range y.pairs {
		for i < len(x.pairs) {
			c := x.pairs[i].V.Cmp(py.V)
			if c < 0 || (orEq && c == 0) {
				cum += x.pairs[i].P
				i++
				continue
			}
			break
		}
		total += py.P * cum
	}
	return total
}

// eqMass returns P[a = b] by merging the sorted supports; runs of values
// equal under Cmp (non-canonical infinity representations) are grouped on
// both sides before multiplying.
func eqMass(a, b Dist) float64 {
	i, j, total := 0, 0, 0.0
	for i < len(a.pairs) && j < len(b.pairs) {
		c := a.pairs[i].V.Cmp(b.pairs[j].V)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			v := a.pairs[i].V
			sa := 0.0
			for i < len(a.pairs) && a.pairs[i].V.Cmp(v) == 0 {
				sa += a.pairs[i].P
				i++
			}
			sb := 0.0
			for j < len(b.pairs) && b.pairs[j].V.Cmp(v) == 0 {
				sb += b.pairs[j].P
				j++
			}
			total += sa * sb
		}
	}
	return total
}

// Reference kernels: the original map-accumulate-then-sort implementations,
// kept unexported as the oracle for the differential kernel tests (and for
// thetas outside the six comparison operators, which have no merge path).

// convolveRef is the map-based reference for Convolve.
func convolveRef(a, b Dist, op Op, cap *Cap) Dist {
	m := make(map[value.V]float64, a.Size()+b.Size())
	for _, pa := range a.pairs {
		for _, pb := range b.pairs {
			v := op(pa.V, pb.V).Key()
			if cap != nil {
				v = cap.clamp(v)
			}
			m[v] += pa.P * pb.P
		}
	}
	return fromMap(m)
}

// mapRef is the map-based reference for Map.
func mapRef(d Dist, f func(value.V) value.V) Dist {
	m := make(map[value.V]float64, d.Size())
	for _, p := range d.pairs {
		m[f(p.V).Key()] += p.P
	}
	return fromMap(m)
}

// mixtureRef is the map-based reference for Mixture. Note it accumulates
// on Key()-canonicalised values; the shipped kernel matches this fixed
// behaviour (the historical kernel keyed on the raw value, so equal
// non-canonical values failed to merge).
func mixtureRef(branches []Dist, weights []float64) Dist {
	if len(branches) != len(weights) {
		panic("prob: Mixture branch/weight length mismatch")
	}
	m := make(map[value.V]float64)
	for i, d := range branches {
		w := weights[i]
		if w < 0 {
			panic("prob: negative mixture weight")
		}
		for _, p := range d.pairs {
			m[p.V.Key()] += w * p.P
		}
	}
	return fromMap(m)
}

// cmpConvolveRef is the cross-product reference for CmpConvolve.
func cmpConvolveRef(a, b Dist, th value.Theta) Dist {
	pTrue := 0.0
	pAll := 0.0
	for _, pa := range a.pairs {
		for _, pb := range b.pairs {
			w := pa.P * pb.P
			pAll += w
			if th.Apply(pa.V, pb.V) {
				pTrue += w
			}
		}
	}
	return FromPairs([]Pair{{value.Bool(true), pTrue}, {value.Bool(false), pAll - pTrue}})
}

// Cap implements the distribution-size bounding described in Section 5
// ("Pruning Conditional Expressions"): when a semimodule expression is
// compared against a constant c, all values on the far side of the decision
// threshold are equivalent, so they may be collapsed into one overflow
// bucket during convolution. This keeps SUM/COUNT distributions at most
// c+2 entries (Proposition 3's m-bounded tractability in practice).
//
// Soundness: for θ ∈ {≤, <, =} against constant c, every value v > c
// satisfies the comparison identically (false), so mapping v to the
// canonical overflow value c+1 preserves the comparison's distribution.
// For {≥, >, ≠} the values above c satisfy it identically (true), so the
// same collapse applies. Monotone ops (+ for SUM, min/max)
// cannot bring an overflowed value back across the threshold, which is why
// capping may be applied at every intermediate node: once above c, a SUM
// can only grow (values are non-negative monoid values by assumption).
type Cap struct {
	// Above, if set, collapses values > Limit to Limit+1.
	Above bool
	Limit value.V
}

func (c *Cap) clamp(v value.V) value.V {
	if c == nil {
		return v
	}
	if c.Above && c.Limit.Less(v) && v.IsInt() {
		return value.Int(c.Limit.Int64() + 1)
	}
	return v
}

// Clamp applies the cap to every value of d.
func (c *Cap) Clamp(d Dist) Dist {
	if c == nil {
		return d
	}
	return Map(d, c.clamp)
}
