package worlds

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// fuzzDists are the distributions FuzzSampleProgram deals to variables:
// Boolean, certain, and multi-valued ones the N semiring keeps in value
// columns.
var fuzzDists = []prob.Dist{
	prob.Bernoulli(0.5),
	prob.Bernoulli(1),
	prob.Bernoulli(0),
	prob.FromPairs([]prob.Pair{{V: value.Int(0), P: 0.25}, {V: value.Int(2), P: 0.25}, {V: value.Int(3), P: 0.5}}),
	prob.FromPairs([]prob.Pair{{V: value.Int(1), P: 0.5}, {V: value.Int(7), P: 0.5}}),
	prob.FromPairs([]prob.Pair{{V: value.Int(4), P: 1}}),
}

// rootValue is the program's value in one world of the evaluated batch.
func (sm *Sampler) rootValue(w int) value.V {
	if sm.root.bit {
		return value.Int(int64(sm.bits(sm.root.reg)[w>>6] >> (w & 63) & 1))
	}
	return sm.val(sm.root.reg)[w]
}

// evalPanics reports whether f panicked.
func evalPanics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// slowProd reports whether e holds a PROD tensor whose scalar may exceed
// limit under the N semiring. m^s is computed by s multiplications, in
// Eval and in the program alike, so "155555555 @prod 0" is minutes of
// fuzzing time and no finding.
func slowProd(e expr.Expr, limit float64) (slow bool) {
	// bound is an upper bound on |e| with no variable above 7; it marks
	// slow on its way.
	var bound func(e expr.Expr) float64
	bound = func(e expr.Expr) float64 {
		switch n := e.(type) {
		case expr.Var:
			return 7
		case expr.Const:
			return math.Abs(n.V.Float())
		case expr.Add:
			b := 0.0
			for _, t := range n.Terms {
				b += bound(t)
			}
			return b
		case expr.Mul:
			b := 1.0
			for _, f := range n.Factors {
				b *= bound(f)
			}
			return b
		case expr.Cmp:
			bound(n.L)
			bound(n.R)
			return 1
		case expr.AggSum:
			for _, t := range n.Terms {
				bound(t)
			}
		case expr.Tensor:
			if b := bound(n.Scalar); n.Agg == algebra.Prod && !(b <= limit) {
				slow = true
			}
			bound(n.Mod)
		}
		return math.Inf(1)
	}
	bound(e)
	return slow
}

// FuzzSampleProgram holds the compiled program to expr.Eval: for any
// expression that parses, under either semiring, with distributions and
// one valuation per lane chosen by the fuzz bytes, the program's value in
// every lane is Eval's under that lane's valuation — and where a variable
// is left undeclared, Sample fails as CheckDeclared does. Arithmetic that
// panics in Eval (+∞ + −∞, an infinite PROD exponent) must panic in the
// program too. Run by the fuzz-smoke CI job.
func FuzzSampleProgram(f *testing.F) {
	// The parse corpus of internal/expr's FuzzParseExpr.
	for i, seed := range []string{
		"x1*y11*(z1 + z5)",
		"x*y @min 5",
		"min(x*y @min 5, (x+z) @min 10)",
		"[min(x @min 5, y @min 7) <= 6]",
		"[x1*y11 + x2 != 0]",
		"[sum(x*y @sum 2, (x + z) @count 1) = max(z @max m:-inf, x @max 1)]",
		"[[x <= y] + true >= [y*z != 0]]*prod(x @prod 2)",
		"((((((((x))))))))",
		"[m:+inf > count(x @count 1)]",
		"x +",
		"min(x, y)",
		"[sum(a @sum 18, b @sum 7, c @sum 34) >= m:30]*[a + b + c != 0]",
		"(x*y) @sum 5",
		"155555555 @prod 0",
	} {
		f.Add(seed, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, src string, choice []byte, natural bool) {
		e, err := expr.Parse(src)
		if err != nil || len(choice) == 0 || expr.Size(e) > 400 || natural && slowProd(e, 1000) {
			return
		}
		pick := func(i int) int { return int(choice[i%len(choice)]) }
		s := algebra.SemiringFor(algebra.Boolean)
		if natural {
			s = algebra.SemiringFor(algebra.Natural)
		}
		names := expr.Vars(e)
		reg := vars.NewRegistry()
		undeclared := false
		for i, x := range names {
			if pick(i) == 255 {
				undeclared = true
				continue
			}
			reg.Declare(x, fuzzDists[pick(i)%len(fuzzDists)])
		}
		var sm Sampler
		if undeclared {
			_, got := sm.Sample(context.Background(), e, reg, s, 10, rand.New(rand.NewSource(1)))
			if want := reg.CheckDeclared(e); got == nil || got.Error() != want.Error() {
				t.Fatalf("%q: error %v, want %v", src, got, want)
			}
			return
		}
		if err := sm.compile(e, reg, s); err != nil {
			t.Fatalf("%q: compile: %v", src, err)
		}
		if len(sm.slots) != len(names) {
			t.Fatalf("%q: %d slots for variables %v", src, len(sm.slots), names)
		}
		// One valuation per lane, into the slot columns as draw would put it.
		const lanes = 70
		nus := make([]expr.Valuation, lanes)
		clear(sm.bitCols[:int(sm.nBitSlots)*batchWords])
		for w := range nus {
			nus[w] = expr.Valuation{}
			for j := range sm.slots {
				sl := &sm.slots[j]
				if sl.name != names[j] {
					t.Fatalf("%q: slot %d is %q, want %q", src, j, sl.name, names[j])
				}
				pairs := reg.MustDist(sl.name).Pairs()
				k := pick(len(names)+w*len(names)+j) % len(pairs)
				nus[w][sl.name] = pairs[k].V
				sm.set(sl, w, sl.lo+int32(k))
			}
		}
		want := make([]value.V, lanes)
		refPanics := evalPanics(func() {
			for w, nu := range nus {
				v, err := expr.Eval(e, nu, s)
				if err != nil {
					t.Fatalf("%q: Eval: %v", src, err)
				}
				want[w] = v
			}
		})
		if panics := evalPanics(func() { sm.eval(lanes) }); panics != refPanics {
			t.Fatalf("%q over %v: program panics = %t, Eval panics = %t", src, s.Kind(), panics, refPanics)
		}
		if refPanics {
			return
		}
		for w := range want {
			if got := sm.rootValue(w); got.Key() != want[w].Key() {
				t.Fatalf("%q over %v, lane %d (%v): program %v, Eval %v", src, s.Kind(), w, nus[w], got, want[w])
			}
		}
	})
}

// TestSampleProgramUnknownNode: a node Eval does not know fails the
// estimate with Eval's error, not a panic.
func TestSampleProgramUnknownNode(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	for _, e := range []expr.Expr{
		nil,
		expr.Add{Terms: []expr.Expr{expr.V("x"), nil}},
		expr.Cmp{Th: value.LE, L: expr.Tensor{Agg: algebra.Min, Scalar: expr.V("x"), Mod: nil}, R: expr.MInt(3)},
	} {
		for _, kind := range []algebra.SemiringKind{algebra.Boolean, algebra.Natural} {
			s := algebra.SemiringFor(kind)
			_, want := expr.Eval(e, expr.Valuation{"x": value.Int(1)}, s)
			_, got := MonteCarlo(e, reg, s, 10, rand.New(rand.NewSource(1)))
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Errorf("%s over %v: error %v, want %v", fmt.Sprint(e), kind, got, want)
			}
		}
	}
}
