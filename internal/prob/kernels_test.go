package prob

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pvcagg/internal/testutil"
	"pvcagg/internal/value"
)

// Differential fuzz of the merge-based kernels against the map-based
// reference implementations (convolveRef, mapRef, mixtureRef,
// cmpConvolveRef) at tolerance 0. Probabilities are small dyadic
// rationals (multiples of 1/256), so every product and sum in both
// implementations is exact in float64 regardless of association order —
// an honest bitwise-equality check even for CmpConvolve, whose prefix-mass
// restructure reorders the summation.

// randDyadicDist builds a random distribution with dyadic probabilities
// and a support drawn from ints (optionally mixed with ±∞).
func randDyadicDist(r *rand.Rand, maxSize int, withInf bool) Dist {
	n := 1 + r.Intn(maxSize)
	pairs := make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		var v value.V
		switch {
		case withInf && r.Intn(8) == 0:
			if r.Intn(2) == 0 {
				v = value.PosInf()
			} else {
				v = value.NegInf()
			}
		case r.Intn(4) == 0:
			v = value.Int(int64(r.Intn(2000) - 1000)) // sparse, wide
		default:
			v = value.Int(int64(r.Intn(30)))
		}
		p := float64(1+r.Intn(255)) / 256
		pairs = append(pairs, Pair{v, p})
	}
	return FromPairs(pairs)
}

func assertBitIdentical(t *testing.T, label string, got, want Dist) {
	t.Helper()
	gp, wp := got.Pairs(), want.Pairs()
	if len(gp) != len(wp) {
		t.Fatalf("%s: size %d != %d\n got %v\nwant %v", label, len(gp), len(wp), got, want)
	}
	for i := range gp {
		if gp[i].V.Key() != wp[i].V.Key() || gp[i].P != wp[i].P {
			t.Fatalf("%s: pair %d: (%v, %v) != (%v, %v)", label, i, gp[i].V, gp[i].P, wp[i].V, wp[i].P)
		}
	}
}

var fuzzOps = []struct {
	name string
	op   Op
}{
	{"add", func(a, b value.V) value.V {
		if (a.IsPosInf() && b.IsNegInf()) || (a.IsNegInf() && b.IsPosInf()) {
			return value.Int(0) // +∞ + −∞ never arises from well-formed expressions
		}
		return a.Add(b)
	}},
	{"min", func(a, b value.V) value.V { return a.Min(b) }},
	{"max", func(a, b value.V) value.V { return a.Max(b) }},
	{"mul", func(a, b value.V) value.V {
		// Guard against +∞ · −∞-free inputs only: restrict to finite/zero.
		if !a.IsInt() || !b.IsInt() {
			return a.Max(b)
		}
		return a.Mul(b)
	}},
}

func TestConvolveDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		a := randDyadicDist(r, 12, true)
		b := randDyadicDist(r, 12, true)
		var cap *Cap
		if r.Intn(2) == 0 {
			cap = &Cap{Above: true, Limit: value.Int(int64(r.Intn(40)))}
		}
		op := fuzzOps[trial%len(fuzzOps)]
		got := Convolve(a, b, op.op, cap)
		want := convolveRef(a, b, op.op, cap)
		assertBitIdentical(t, "Convolve/"+op.name, got, want)
	}
}

// TestConvolveDenseSpill forces the dense window past its budget so the
// pooled-map spill path is exercised, and checks it against the
// reference.
func TestConvolveDenseSpill(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		// Very sparse, very wide supports: values up to ±1e9 forbid a
		// dense window.
		build := func() Dist {
			n := 2 + r.Intn(6)
			pairs := make([]Pair, 0, n)
			for i := 0; i < n; i++ {
				pairs = append(pairs, Pair{value.Int(int64(r.Intn(2_000_000_000) - 1_000_000_000)), float64(1+r.Intn(255)) / 256})
			}
			return FromPairs(pairs)
		}
		a, b := build(), build()
		op := func(x, y value.V) value.V { return x.Add(y) }
		assertBitIdentical(t, "Convolve/spill", Convolve(a, b, op, nil), convolveRef(a, b, op, nil))
	}
}

// TestConvolveExtremeValues: supports spanning the whole int64 range must
// spill, not overflow the dense window's width arithmetic — including
// windows pinned at MaxInt64 (base+len overflow) and MaxInt64 outputs
// (n+1 overflow).
func TestConvolveExtremeValues(t *testing.T) {
	op := func(x, y value.V) value.V { return x.Max(y) }
	cases := [][2]Dist{
		{
			FromPairs([]Pair{{value.Int(math.MinInt64), 0.25}, {value.Int(0), 0.25}, {value.Int(math.MaxInt64), 0.5}}),
			FromPairs([]Pair{{value.Int(0), 0.5}, {value.Int(1), 0.5}}),
		},
		{
			// MaxInt64 encountered first pins the window at the top of the
			// range; the later small values must spill.
			FromPairs([]Pair{{value.Int(math.MaxInt64), 0.5}, {value.Int(math.MinInt64), 0.5}}),
			FromPairs([]Pair{{value.Int(math.MinInt64), 1}}),
		},
		{
			FromPairs([]Pair{{value.Int(math.MaxInt64 - 1), 0.5}, {value.Int(math.MaxInt64), 0.5}}),
			FromPairs([]Pair{{value.Int(-3), 0.5}, {value.Int(math.MaxInt64), 0.5}}),
		},
	}
	for i, c := range cases {
		assertBitIdentical(t, fmt.Sprintf("Convolve/extreme%d", i), Convolve(c[0], c[1], op, nil), convolveRef(c[0], c[1], op, nil))
	}
}

func TestMapDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	fns := []func(value.V) value.V{
		func(v value.V) value.V { return v },
		func(v value.V) value.V { return v.Max(value.Int(5)) },
		func(v value.V) value.V { // non-monotone: forces the sort path
			if !v.IsInt() {
				return v
			}
			return value.Int(-v.Int64())
		},
		func(v value.V) value.V { return value.Bool(v.Truth()) },
	}
	for trial := 0; trial < 200; trial++ {
		d := randDyadicDist(r, 16, true)
		f := fns[trial%len(fns)]
		assertBitIdentical(t, "Map", Map(d, f), mapRef(d, f))
	}
}

func TestMixtureDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(10)
		branches := make([]Dist, k)
		weights := make([]float64, k)
		for i := range branches {
			branches[i] = randDyadicDist(r, 8, true)
			weights[i] = float64(r.Intn(256)) / 256
		}
		assertBitIdentical(t, "Mixture", Mixture(branches, weights), mixtureRef(branches, weights))
	}
}

func TestCmpConvolveDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	thetas := []value.Theta{value.EQ, value.NE, value.LE, value.GE, value.LT, value.GT}
	for trial := 0; trial < 400; trial++ {
		a := randDyadicDist(r, 12, true)
		b := randDyadicDist(r, 12, true)
		th := thetas[trial%len(thetas)]
		assertBitIdentical(t, "CmpConvolve/"+th.String(), CmpConvolve(a, b, th), cmpConvolveRef(a, b, th))
	}
}

// TestMixtureCanonicalisesValues is the regression test for the Mixture
// canonicalisation bug: the historical kernel accumulated on the raw
// value, so two representations of the same infinity (which compare equal
// under Key and Cmp) produced two entries instead of merging. Dist
// contents are only reachable through canonicalising constructors, so the
// pathological input is built in-package.
func TestMixtureCanonicalisesValues(t *testing.T) {
	// Two branches whose +∞ entries are the same value; a buggy kernel
	// keyed on the raw value merges them only if representations match.
	b1 := Dist{pairs: []Pair{{value.Int(1), 0.5}, {value.PosInf(), 0.5}}}
	b2 := Dist{pairs: []Pair{{value.PosInf(), 1.0}}}
	got := Mixture([]Dist{b1, b2}, []float64{0.5, 0.5})
	if got.Size() != 2 {
		t.Fatalf("Mixture did not merge canonical-equal values: %v", got)
	}
	if p := got.P(value.PosInf()); p != 0.75 {
		t.Errorf("P(+inf) = %v, want 0.75", p)
	}
	if p := got.P(value.Int(1)); p != 0.25 {
		t.Errorf("P(1) = %v, want 0.25", p)
	}
	// And against the fixed reference.
	assertBitIdentical(t, "Mixture/canonical", got, mixtureRef([]Dist{b1, b2}, []float64{0.5, 0.5}))
}

// TestDropBelowExactZero pins the dropBelow contract: the threshold is
// exactly zero, so impossible outcomes are dropped and every positive
// probability — down to the smallest subnormal — is retained.
func TestDropBelowExactZero(t *testing.T) {
	if dropBelow != 0.0 {
		t.Fatalf("dropBelow = %v, want exactly 0", dropBelow)
	}
	tiny := math.SmallestNonzeroFloat64
	d := FromPairs([]Pair{
		{value.Int(0), 0},    // impossible: dropped
		{value.Int(1), tiny}, // subnormal: retained
		{value.Int(2), 1},
	})
	if d.Size() != 2 {
		t.Fatalf("FromPairs kept %d entries, want 2: %v", d.Size(), d)
	}
	if p := d.P(value.Int(1)); p != tiny {
		t.Errorf("subnormal probability %v not retained exactly (got %v)", tiny, p)
	}
	if p := d.P(value.Int(0)); p != 0 {
		t.Errorf("zero-probability entry retained: %v", p)
	}
	// The same contract holds through the kernels: a Bernoulli with p = 1
	// loses its impossible ⊥ entry, and subnormal masses survive a
	// convolution.
	if got := Bernoulli(1).Size(); got != 1 {
		t.Errorf("Bernoulli(1) has %d entries, want 1", got)
	}
	conv := Convolve(d, Point(value.Int(0)), func(a, b value.V) value.V { return a.Add(b) }, nil)
	if p := conv.P(value.Int(1)); p != tiny {
		t.Errorf("subnormal probability lost in Convolve: got %v", p)
	}
}

// sumOperand draws one operand of the ConvolveSum differential in the
// named shape. Probabilities are arbitrary floats, not dyadic: a kernel
// that folded collisions in another order than the reference would differ
// in the last bit here.
func sumOperand(r *rand.Rand, shape string) Dist {
	n := 1 + r.Intn(24)
	pairs := make([]Pair, 0, n+1)
	add := func(v value.V) { pairs = append(pairs, Pair{v, r.Float64() + 1e-3}) }
	for i := 0; i < n; i++ {
		switch shape {
		case "dense":
			add(value.Int(int64(r.Intn(40))))
		case "contiguous":
			add(value.Int(int64(i) - 5))
		case "negative":
			add(value.Int(int64(r.Intn(300) - 400)))
		case "sparse": // too wide for the dense budget of ≤ 25×25 cells
			add(value.Int(int64(r.Intn(2_000_000_000) - 1_000_000_000)))
		case "posinf", "neginf":
			add(value.Int(int64(r.Intn(40))))
		case "maxint":
			add(value.Int(math.MaxInt64 - int64(r.Intn(20))))
		case "minint":
			add(value.Int(math.MinInt64 + int64(r.Intn(20))))
		}
	}
	switch shape {
	case "posinf":
		add(value.PosInf())
	case "neginf":
		add(value.NegInf())
	}
	return FromPairs(pairs)
}

func TestConvolveSumDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	check := func(label string, a, b Dist, cap *Cap, wantDense bool) {
		t.Helper()
		assertBitIdentical(t, "ConvolveSum/"+label, ConvolveSum(a, b, cap), convolveRef(a, b, value.V.Add, cap))
		_, width, dense := sumWindow(a.pairs, b.pairs, cap)
		if dense != wantDense {
			t.Fatalf("%s: dense kernel used = %v, want %v (a=%v b=%v cap=%+v)", label, dense, wantDense, a, b, cap)
		}
		if dense && (width < 1 || width > maxDenseWidth) {
			t.Fatalf("%s: window width %d outside [1, %d]", label, width, maxDenseWidth)
		}
	}
	// Finite, overflow-free, dense-enough operands take the kernel under
	// every cap: below, inside and above the output range, and at the ends
	// of int64.
	for trial := 0; trial < 300; trial++ {
		shapes := []string{"dense", "contiguous", "negative"}
		a := sumOperand(r, shapes[r.Intn(len(shapes))])
		b := sumOperand(r, shapes[r.Intn(len(shapes))])
		lo := a.pairs[0].V.Int64() + b.pairs[0].V.Int64()
		hi := a.pairs[len(a.pairs)-1].V.Int64() + b.pairs[len(b.pairs)-1].V.Int64()
		caps := []*Cap{
			nil,
			{Above: true, Limit: value.Int(lo - 1 - int64(r.Intn(50)))},
			{Above: true, Limit: value.Int(lo)},
			{Above: true, Limit: value.Int(lo + r.Int63n(hi-lo+1))},
			{Above: true, Limit: value.Int(hi)},
			{Above: true, Limit: value.Int(hi + 1 + int64(r.Intn(50)))},
			{Above: true, Limit: value.Int(math.MaxInt64)},
			{Above: true, Limit: value.Int(math.MinInt64)},
			{Limit: value.Int(lo)}, // Above unset: the identity
		}
		check("finite", a, b, caps[trial%len(caps)], true)
	}
	// randDyadicDist operands (the other kernels' generator): mixed dense
	// and ±1000 values; whichever path each case takes, the answer is the
	// reference's.
	for trial := 0; trial < 200; trial++ {
		a, b := randDyadicDist(r, 12, false), randDyadicDist(r, 12, false)
		var cap *Cap
		if trial%2 == 0 {
			cap = &Cap{Above: true, Limit: value.Int(int64(r.Intn(80) - 20))}
		}
		assertBitIdentical(t, "ConvolveSum/dyadic", ConvolveSum(a, b, cap), convolveRef(a, b, value.V.Add, cap))
	}
	// Everything else must fall back: an infinity at either end of either
	// operand, sums that would wrap int64, supports too sparse for the
	// dense budget, and an infinite cap limit.
	mid := &Cap{Above: true, Limit: value.Int(30)}
	for trial := 0; trial < 100; trial++ {
		dense := sumOperand(r, "dense")
		for _, c := range []struct {
			label string
			a, b  Dist
		}{
			{"posinf-a", sumOperand(r, "posinf"), dense},
			{"posinf-b", dense, sumOperand(r, "posinf")},
			{"posinf-both", sumOperand(r, "posinf"), sumOperand(r, "posinf")},
			{"neginf-a", sumOperand(r, "neginf"), dense},
			{"neginf-b", dense, sumOperand(r, "neginf")},
			{"overflow-hi", sumOperand(r, "maxint"), Point(value.Int(20 + int64(r.Intn(40))))},
			{"overflow-hi-both", sumOperand(r, "maxint"), sumOperand(r, "maxint")},
			{"overflow-lo", sumOperand(r, "minint"), Point(value.Int(-20 - int64(r.Intn(40))))},
			{"overflow-lo-both", sumOperand(r, "minint"), sumOperand(r, "minint")},
			{"sparse", sumOperand(r, "sparse"), FromPairs([]Pair{{value.Int(-1_000_000_000), 0.5}, {value.Int(1_000_000_000), 0.5}})},
		} {
			check(c.label, c.a, c.b, nil, false)
			if c.label != "sparse" { // a cap narrows a sparse window back into budget
				check(c.label+"/capped", c.a, c.b, mid, false)
			}
		}
		check("inf-limit", dense, dense, &Cap{Above: true, Limit: value.PosInf()}, false)
	}
	// Next to the ends of int64 without crossing them, the kernel applies
	// and its index arithmetic must not wrap.
	top := FromPairs([]Pair{{value.Int(math.MaxInt64 - 9), 0.3}, {value.Int(math.MaxInt64 - 4), 0.7}})
	bottom := FromPairs([]Pair{{value.Int(math.MinInt64 + 2), 0.6}, {value.Int(math.MinInt64 + 7), 0.4}})
	small := FromPairs([]Pair{{value.Int(0), 0.2}, {value.Int(1), 0.3}, {value.Int(4), 0.5}})
	check("near-max", top, small, nil, true)
	check("near-max/capped", top, small, &Cap{Above: true, Limit: value.Int(math.MaxInt64 - 6)}, true)
	check("near-min", small, bottom, nil, true)
	check("near-min/capped", small, bottom, &Cap{Above: true, Limit: value.Int(math.MinInt64 + 5)}, true)
	// Far-apart operands under a low cap: b's own span exceeds int64, the
	// capped window is two cells.
	wide := FromPairs([]Pair{{value.Int(math.MinInt64 + 1), 0.5}, {value.Int(math.MaxInt64 - 1), 0.5}})
	check("wide-b/capped", Point(value.Int(0)), wide, &Cap{Above: true, Limit: value.Int(math.MinInt64 + 1)}, true)
	assertBitIdentical(t, "ConvolveSum/empty", ConvolveSum(Dist{}, small, nil), Dist{})
	assertBitIdentical(t, "ConvolveSum/empty", ConvolveSum(small, Dist{}, mid), Dist{})
}

// FuzzConvolveSum holds ConvolveSum to convolveRef under == on operands
// decoded from the fuzzer's bytes: ten bytes per pair (value, kind,
// probability), kinds covering small, medium, raw and end-of-range
// integers and one sign of infinity per input (+∞ + −∞ is undefined).
// Run by the fuzz-smoke CI job.
func FuzzConvolveSum(f *testing.F) {
	pair := func(v int64, kind, p byte) []byte {
		return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56), kind, p}
	}
	cat := func(ps ...[]byte) (out []byte) {
		for _, p := range ps {
			out = append(out, p...)
		}
		return out
	}
	f.Add(cat(pair(1, 0, 10), pair(2, 0, 20), pair(0, 0, 30), pair(7, 0, 40)), uint8(2), int64(5), true, false)
	f.Add(cat(pair(3, 3, 10), pair(1, 0, 20), pair(9, 3, 30)), uint8(1), int64(0), false, false)
	f.Add(cat(pair(3, 4, 10), pair(-1, 0, 20), pair(9, 4, 30)), uint8(2), int64(math.MinInt64), true, true)
	f.Add(cat(pair(0, 5, 1), pair(5, 0, 2), pair(900, 1, 3), pair(-7, 2, 4)), uint8(1), int64(100), true, true)
	f.Fuzz(func(t *testing.T, data []byte, split uint8, limit int64, capped, negInf bool) {
		var pairs []Pair
		for ; len(data) >= 10 && len(pairs) < 64; data = data[10:] {
			raw := int64(uint64(data[0]) | uint64(data[1])<<8 | uint64(data[2])<<16 | uint64(data[3])<<24 |
				uint64(data[4])<<32 | uint64(data[5])<<40 | uint64(data[6])<<48 | uint64(data[7])<<56)
			var v value.V
			switch data[8] % 6 {
			case 0:
				v = value.Int(raw % 64)
			case 1:
				v = value.Int(raw % 4096)
			case 2:
				v = value.Int(raw)
			case 3:
				v = value.Int(math.MaxInt64 - (raw & 15))
			case 4:
				v = value.Int(math.MinInt64 + (raw & 15))
			default:
				v = value.PosInf()
				if negInf {
					v = value.NegInf()
				}
			}
			pairs = append(pairs, Pair{v, float64(1+int(data[9])) / 257})
		}
		k := min(int(split), len(pairs))
		a, b := FromPairs(pairs[:k]), FromPairs(pairs[k:])
		var cap *Cap
		if capped {
			cap = &Cap{Above: true, Limit: value.Int(limit)}
		}
		assertBitIdentical(t, "ConvolveSum/fuzz", ConvolveSum(a, b, cap), convolveRef(a, b, value.V.Add, cap))
	})
}

// chainRef is the reference for FoldSum: convolveRef chained left to right.
func chainRef(ds []Dist, cap *Cap) Dist {
	out := ds[0]
	for _, d := range ds[1:] {
		out = convolveRef(out, d, value.V.Add, cap)
	}
	return out
}

// TestFoldSumDifferential holds FoldSum to the ConvolveSum chain bit for
// bit on arbitrary probabilities — the fold adds every cell in the order
// the chain does — over summands the dense fold takes: non-negative ones
// under caps below, inside and above their range (the last collapses the
// whole window into the overflow cell, the middle ones move the window's
// base up past summands that are never 0), and signed ones without a cap.
// The first summand is kept under the cap, as the evaluator's are.
func TestFoldSumDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 600; trial++ {
		n := 2 + r.Intn(7)
		signed := trial%3 == 0
		ds := make([]Dist, n)
		var hi int64
		for i := range ds {
			m := 1 + r.Intn(5)
			if r.Intn(3) == 0 {
				m = 2
			}
			from := int64(r.Intn(4)) // never 0 in one summand of four
			if signed {
				from = int64(r.Intn(60) - 30)
			}
			pairs := make([]Pair, m)
			for j := range pairs {
				pairs[j] = Pair{value.Int(from + int64(r.Intn(1+r.Intn(40)))), r.Float64() + 1e-3}
			}
			ds[i] = FromPairs(pairs)
			hi += ds[i].pairs[ds[i].Size()-1].V.Int64()
		}
		var cap *Cap
		if !signed && trial%2 == 0 {
			cap = &Cap{Above: true, Limit: value.Int(r.Int63n(hi + 2))}
			ds[0] = cap.Clamp(ds[0])
		}
		if _, ok := FoldCost(ds, cap); !ok {
			t.Fatalf("trial %d: the dense fold refused %v under %+v", trial, ds, cap)
		}
		want := ds[0]
		for _, d := range ds[1:] {
			want = ConvolveSum(want, d, cap)
		}
		assertBitIdentical(t, fmt.Sprintf("FoldSum/%d", trial), FoldSum(ds, cap), want)
	}
}

// TestFoldCost pins the cost model on a capped fold: windows of width 3,
// 5 and 5 (the cap at 3 makes the last one [0, 4]) swept by summands of
// 2, 2 and 3 points; and Plus, the pairwise estimate, on the same shapes.
func TestFoldCost(t *testing.T) {
	ds := []Dist{
		FromPairs([]Pair{{value.Int(0), 0.5}, {value.Int(2), 0.5}}),
		FromPairs([]Pair{{value.Int(0), 0.5}, {value.Int(2), 0.5}}),
		FromPairs([]Pair{{value.Int(0), 0.25}, {value.Int(1), 0.25}, {value.Int(5), 0.5}}),
	}
	cap := &Cap{Above: true, Limit: value.Int(3)}
	if cost, ok := FoldCost(ds, cap); !ok || cost != 3*2+5*2+5*3 {
		t.Fatalf("FoldCost = %d, %v; want %d", cost, ok, 3*2+5*2+5*3)
	}
	ab := ShapeOf(ds[0]).Plus(ShapeOf(ds[1]), cap)
	if want := (SumShape{Size: 4, Width: 5, Lo: 0}); ab != want {
		t.Fatalf("shape of a + b = %+v, want %+v", ab, want)
	}
	if got, want := ab.Plus(ShapeOf(ds[2]), cap), (SumShape{Size: 5, Width: 5, Lo: 0}); got != want {
		t.Fatalf("capped shape of (a + b) + c = %+v, want %+v", got, want)
	}
	if got, want := ab.Plus(ShapeOf(ds[2]), nil), (SumShape{Size: 10, Width: 10, Lo: 0}); got != want {
		t.Fatalf("shape of (a + b) + c = %+v, want %+v", got, want)
	}
	if _, ok := FoldCost(ds, &Cap{Above: true, Limit: value.PosInf()}); ok {
		t.Fatal("FoldCost accepted an infinite cap limit")
	}
}

// FuzzSumFold holds FoldSum to a left-to-right chain of convolveRef under
// == on dyadic summands decoded from the fuzzer's bytes: at most six, of
// at most four points each, probabilities in sixteenths (so every sum and
// product is exact in any order), with and without a cap whose limit is
// non-negative. One header byte per summand picks its size and kind: small
// values in ±1000 (non-negative for kind 0, the dense fold's case under a
// cap), or one of the fallbacks — an infinity (one sign per input; +∞ + −∞
// is undefined), values at either end of int64, values spread too wide for
// the window. Each point is two value bytes and one probability byte. The
// fold runs twice, so a pooled window left dirty shows. Run by the
// fuzz-smoke CI job.
func FuzzSumFold(f *testing.F) {
	f.Add([]byte{1, 3, 0, 4, 5, 0, 9, 0, 0, 2, 0, 0, 1, 7, 0, 15}, int64(6), true, false)
	f.Add([]byte{5, 0xfd, 0xff, 3, 2, 0, 7, 4, 1, 0, 1, 3, 0, 3}, int64(0), false, false)
	f.Add([]byte{0, 4, 0, 1, 16, 7, 0, 2, 1, 0, 5, 4, 0, 3, 0}, int64(2), true, false)
	f.Add([]byte{1, 3, 0, 4, 5, 0, 9, 17, 0, 0, 2, 20, 0, 7}, int64(100), true, true)
	f.Add([]byte{1, 3, 0, 4, 5, 0, 9, 21, 3, 0, 2, 8, 0, 7}, int64(1000), false, false)
	f.Add([]byte{1, 3, 0, 4, 5, 0, 9, 25, 3, 0, 2, 8, 0, 7}, int64(10), true, false)
	f.Add([]byte{29, 3, 0, 4, 5, 0, 9, 29, 3, 0, 2, 8, 0, 7}, int64(0), false, false)
	f.Fuzz(func(t *testing.T, data []byte, limit int64, capped, negInf bool) {
		var ds []Dist
		for len(data) >= 4 && len(ds) < 6 {
			h := data[0]
			data = data[1:]
			var pairs []Pair
			for n := 1 + int(h%4); n > 0 && len(data) >= 3; n-- {
				raw := int64(int16(uint16(data[0]) | uint16(data[1])<<8))
				v := value.Int(raw % 1001)
				switch h / 4 % 8 {
				case 0:
					v = value.Int((raw%1001 + 1001) % 1001)
				case 4:
					if raw%3 == 0 {
						v = value.PosInf()
						if negInf {
							v = value.NegInf()
						}
					}
				case 5:
					v = value.Int(math.MaxInt64 - raw&15)
				case 6:
					v = value.Int(math.MinInt64 + raw&15)
				case 7:
					v = value.Int(raw * 4099)
				}
				pairs = append(pairs, Pair{v, float64(1+data[2]%16) / 16})
				data = data[3:]
			}
			ds = append(ds, FromPairs(pairs))
		}
		if len(ds) == 0 {
			return
		}
		var cap *Cap
		if capped {
			cap = &Cap{Above: true, Limit: value.Int((limit & math.MaxInt64) % 3000)}
		}
		want := chainRef(ds, cap)
		assertBitIdentical(t, "FoldSum", FoldSum(ds, cap), want)
		assertBitIdentical(t, "FoldSum/again", FoldSum(ds, cap), want)
	})
}

// TestConvolveSumSmallAllocs pins that the kernel stages small operands
// without allocating: a 2×2 SUM convolution — the shape of most ⊕ nodes —
// allocates nothing beyond what Convolve does (the result).
func TestConvolveSumSmallAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	a := FromPairs([]Pair{{value.Int(0), 0.5}, {value.Int(3), 0.5}})
	b := FromPairs([]Pair{{value.Int(0), 0.25}, {value.Int(7), 0.75}})
	sum := testing.AllocsPerRun(200, func() { ConvolveSum(a, b, nil) })
	generic := testing.AllocsPerRun(200, func() { Convolve(a, b, value.V.Add, nil) })
	if sum > generic {
		t.Errorf("2×2 ConvolveSum allocates %v per run, Convolve %v", sum, generic)
	}
}
