package prob

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pvcagg/internal/value"
)

const tol = 1e-12

func TestFromPairsMergesAndSorts(t *testing.T) {
	d := FromPairs([]Pair{
		{value.Int(5), 0.2},
		{value.Int(3), 0.3},
		{value.Int(5), 0.1},
		{value.Int(7), 0},
	})
	if d.Size() != 2 {
		t.Fatalf("Size = %d, want 2 (merged, zero dropped): %v", d.Size(), d)
	}
	if d.Pairs()[0].V != value.Int(3) || d.Pairs()[1].V != value.Int(5) {
		t.Errorf("not sorted: %v", d)
	}
	if math.Abs(d.P(value.Int(5))-0.3) > tol {
		t.Errorf("P(5) = %v, want 0.3", d.P(value.Int(5)))
	}
	if d.P(value.Int(7)) != 0 {
		t.Errorf("P(7) = %v, want 0", d.P(value.Int(7)))
	}
}

func TestFromPairsNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("negative probability did not panic")
		}
	}()
	FromPairs([]Pair{{value.Int(1), -0.5}})
}

func TestPointAndBernoulli(t *testing.T) {
	p := Point(value.Int(9))
	if p.Size() != 1 || p.P(value.Int(9)) != 1 {
		t.Errorf("Point broken: %v", p)
	}
	b := Bernoulli(0.3)
	if math.Abs(b.P(value.Bool(true))-0.3) > tol || math.Abs(b.P(value.Bool(false))-0.7) > tol {
		t.Errorf("Bernoulli broken: %v", b)
	}
	if b := Bernoulli(1); b.Size() != 1 {
		t.Errorf("Bernoulli(1) should drop the zero mass: %v", b)
	}
}

func TestBernoulliRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Bernoulli(1.5) did not panic")
		}
	}()
	Bernoulli(1.5)
}

func TestMassAndSupport(t *testing.T) {
	d := FromPairs([]Pair{{value.Int(1), 0.25}, {value.Int(2), 0.5}})
	if math.Abs(d.Mass()-0.75) > tol {
		t.Errorf("Mass = %v", d.Mass())
	}
	s := d.Support()
	if len(s) != 2 || s[0] != value.Int(1) || s[1] != value.Int(2) {
		t.Errorf("Support = %v", s)
	}
}

func TestTruthProbability(t *testing.T) {
	d := FromPairs([]Pair{
		{value.Int(0), 0.5},
		{value.Int(1), 0.3},
		{value.Int(2), 0.2},
	})
	if math.Abs(d.TruthProbability()-0.5) > tol {
		t.Errorf("TruthProbability = %v, want 0.5", d.TruthProbability())
	}
}

func TestExpectation(t *testing.T) {
	d := FromPairs([]Pair{{value.Int(10), 0.5}, {value.Int(20), 0.5}})
	if math.Abs(d.Expectation()-15) > tol {
		t.Errorf("Expectation = %v", d.Expectation())
	}
}

// Paper Example 2: P(Φ ∨ Ψ) = 1 − (1 − PΦ)(1 − PΨ) as a special case of
// convolution over the Boolean semiring.
func TestExample2Disjunction(t *testing.T) {
	or := func(a, b value.V) value.V { return value.Bool(a.Truth() || b.Truth()) }
	f := func(p1, p2 uint8) bool {
		pa := float64(p1%101) / 100
		pb := float64(p2%101) / 100
		d := Convolve(Bernoulli(pa), Bernoulli(pb), or, nil)
		want := 1 - (1-pa)*(1-pb)
		return math.Abs(d.P(value.Bool(true))-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Paper Example 11: Φ = x with Px = {(0,0.3),(1,0.3),(2,0.4)}, α = y⊗5 with
// Py = {(1,0.4),(2,0.4),(3,0.2)}; then Pα = {(5,0.4),(10,0.4),(15,0.2)} and
// P(Φ⊗α)[10] = Px[1]Pα[10] + Px[2]Pα[5].
func TestExample11TensorConvolution(t *testing.T) {
	px := FromPairs([]Pair{{value.Int(0), 0.3}, {value.Int(1), 0.3}, {value.Int(2), 0.4}})
	py := FromPairs([]Pair{{value.Int(1), 0.4}, {value.Int(2), 0.4}, {value.Int(3), 0.2}})
	times5 := Map(py, func(v value.V) value.V { return v.Mul(value.Int(5)) })
	want := FromPairs([]Pair{{value.Int(5), 0.4}, {value.Int(10), 0.4}, {value.Int(15), 0.2}})
	if !times5.Equal(want, tol) {
		t.Fatalf("Pα = %v, want %v", times5, want)
	}
	mul := func(a, b value.V) value.V { return a.Mul(b) }
	d := Convolve(px, times5, mul, nil)
	wantP10 := 0.3*0.4 + 0.4*0.4
	if math.Abs(d.P(value.Int(10))-wantP10) > tol {
		t.Errorf("P[10] = %v, want %v", d.P(value.Int(10)), wantP10)
	}
	// Possible outcomes listed in the paper: 0, 5, 10, 15, 20, 30 (+45).
	for _, v := range []int64{0, 5, 10, 15, 20, 30} {
		if d.P(value.Int(v)) <= 0 {
			t.Errorf("outcome %d missing: %v", v, d)
		}
	}
}

func TestConvolveSumAgainstDirectEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	add := func(a, b value.V) value.V { return a.Add(b) }
	for trial := 0; trial < 50; trial++ {
		a := randomDist(r, 4)
		b := randomDist(r, 4)
		got := Convolve(a, b, add, nil)
		// direct enumeration
		m := map[value.V]float64{}
		for _, pa := range a.Pairs() {
			for _, pb := range b.Pairs() {
				m[pa.V.Add(pb.V)] += pa.P * pb.P
			}
		}
		want := fromMap(m)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("Convolve mismatch: %v vs %v", got, want)
		}
		if math.Abs(got.Mass()-a.Mass()*b.Mass()) > 1e-9 {
			t.Fatalf("mass not multiplicative")
		}
	}
}

func randomDist(r *rand.Rand, n int) Dist {
	pairs := make([]Pair, 0, n)
	rest := 1.0
	for i := 0; i < n; i++ {
		p := rest * r.Float64()
		pairs = append(pairs, Pair{value.Int(int64(r.Intn(10))), p})
		rest -= p
	}
	pairs = append(pairs, Pair{value.Int(int64(r.Intn(10))), rest})
	return FromPairs(pairs)
}

func TestMixture(t *testing.T) {
	d1 := Point(value.Int(1))
	d2 := Point(value.Int(2))
	mix := Mixture([]Dist{d1, d2}, []float64{0.25, 0.75})
	if math.Abs(mix.P(value.Int(1))-0.25) > tol || math.Abs(mix.P(value.Int(2))-0.75) > tol {
		t.Errorf("Mixture = %v", mix)
	}
	if math.Abs(mix.Mass()-1) > tol {
		t.Errorf("Mixture mass = %v", mix.Mass())
	}
}

func TestMixtureMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("mismatched Mixture did not panic")
		}
	}()
	Mixture([]Dist{Point(value.Int(1))}, []float64{0.5, 0.5})
}

func TestCmpConvolve(t *testing.T) {
	a := FromPairs([]Pair{{value.Int(10), 0.5}, {value.Int(60), 0.5}})
	c := Point(value.Int(50))
	d := CmpConvolve(a, c, value.LE)
	if math.Abs(d.P(value.Bool(true))-0.5) > tol {
		t.Errorf("P[10|60 <= 50] = %v, want 0.5", d.P(value.Bool(true)))
	}
	// With infinities: [+∞ ≤ 50] is false.
	aInf := FromPairs([]Pair{{value.PosInf(), 0.3}, {value.Int(5), 0.7}})
	d2 := CmpConvolve(aInf, c, value.LE)
	if math.Abs(d2.P(value.Bool(true))-0.7) > tol {
		t.Errorf("with +inf: %v", d2)
	}
}

func TestScale(t *testing.T) {
	d := Bernoulli(0.5).Scale(0.5)
	if math.Abs(d.Mass()-0.5) > tol {
		t.Errorf("Scale mass = %v", d.Mass())
	}
	if Bernoulli(0.5).Scale(0).Size() != 0 {
		t.Errorf("Scale(0) should be empty")
	}
}

func TestEqualDifferentSupport(t *testing.T) {
	a := Point(value.Int(1))
	b := Point(value.Int(2))
	if a.Equal(b, tol) {
		t.Errorf("distinct points reported equal")
	}
	if !a.Equal(a, 0) {
		t.Errorf("reflexivity failed")
	}
	// Values with tiny extra mass within tolerance are equal.
	c := FromPairs([]Pair{{value.Int(1), 1}, {value.Int(9), 1e-15}})
	if !a.Equal(c, 1e-12) {
		t.Errorf("tolerance not applied to support difference")
	}
}

// capAbove is the cap on the left operand of [α θ c] for α built from
// non-negative terms by a monotone monoid: whatever θ is, the values above
// c are equivalent (what compile.capFor derives, minus its analysis of α).
func capAbove(c value.V) *Cap { return &Cap{Above: true, Limit: c} }

func TestCapClampLE(t *testing.T) {
	c := capAbove(value.Int(50))
	d := FromPairs([]Pair{
		{value.Int(10), 0.25},
		{value.Int(60), 0.25},
		{value.Int(80), 0.25},
		{value.Int(100), 0.25},
	})
	capped := c.Clamp(d)
	if capped.Size() != 2 {
		t.Fatalf("capped size = %d, want 2: %v", capped.Size(), capped)
	}
	if math.Abs(capped.P(value.Int(51))-0.75) > tol {
		t.Errorf("overflow bucket = %v", capped.P(value.Int(51)))
	}
	// The comparison distribution is unchanged by capping.
	before := CmpConvolve(d, Point(value.Int(50)), value.LE)
	after := CmpConvolve(capped, Point(value.Int(50)), value.LE)
	if !before.Equal(after, tol) {
		t.Errorf("capping changed comparison outcome: %v vs %v", before, after)
	}
}

// Property: capping commutes with SUM-convolution as far as the final
// comparison [· θ c] is concerned, for non-negative values.
func TestCapSoundnessUnderSum(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	add := func(a, b value.V) value.V { return a.Add(b) }
	for trial := 0; trial < 200; trial++ {
		a := randomDist(r, 3)
		b := randomDist(r, 3)
		cv := value.Int(int64(r.Intn(15)))
		for _, th := range []value.Theta{value.EQ, value.LE, value.GE, value.LT, value.GT, value.NE} {
			cp := capAbove(cv)
			exact := CmpConvolve(Convolve(a, b, add, nil), Point(cv), th)
			capped := CmpConvolve(Convolve(cp.Clamp(a), cp.Clamp(b), add, cp), Point(cv), th)
			if !exact.Equal(capped, 1e-9) {
				t.Fatalf("cap unsound for θ=%v c=%v: %v vs %v", th, cv, exact, capped)
			}
		}
	}
}

// Same soundness property under MIN and MAX combination.
func TestCapSoundnessUnderMinMax(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	minOp := func(a, b value.V) value.V { return a.Min(b) }
	maxOp := func(a, b value.V) value.V { return a.Max(b) }
	for trial := 0; trial < 200; trial++ {
		a := randomDist(r, 3)
		b := randomDist(r, 3)
		cv := value.Int(int64(r.Intn(15)))
		for _, th := range []value.Theta{value.EQ, value.LE, value.GE, value.LT, value.GT, value.NE} {
			cp := capAbove(cv)
			for _, op := range []Op{minOp, maxOp} {
				exact := CmpConvolve(Convolve(a, b, op, nil), Point(cv), th)
				capped := CmpConvolve(Convolve(cp.Clamp(a), cp.Clamp(b), op, cp), Point(cv), th)
				if !exact.Equal(capped, 1e-9) {
					t.Fatalf("cap unsound for θ=%v c=%v: %v vs %v", th, cv, exact, capped)
				}
			}
		}
	}
}

func TestStringRendering(t *testing.T) {
	d := FromPairs([]Pair{{value.Int(1), 0.5}, {value.Int(2), 0.5}})
	if got := d.String(); got != "{(1, 0.5), (2, 0.5)}" {
		t.Errorf("String = %q", got)
	}
}
