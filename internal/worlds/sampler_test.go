package worlds_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/gen"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
	"pvcagg/internal/worlds"
)

var bothSemirings = []algebra.Semiring{algebra.SemiringFor(algebra.Boolean), algebra.SemiringFor(algebra.Natural)}

// boolVars declares x0…x(n-1) with varying marginals and returns them.
func boolVars(reg *vars.Registry, prefix string, n int) []expr.Expr {
	out := make([]expr.Expr, n)
	for i := range out {
		name := fmt.Sprintf("%s%d", prefix, i)
		reg.DeclareBool(name, 0.1+0.8*float64(i%7)/6)
		out[i] = expr.V(name)
	}
	return out
}

// orOfProducts is o0·l0 + … + o(n-1)·l(n-1).
func orOfProducts(reg *vars.Registry, n int) expr.Expr {
	os, ls := boolVars(reg, "o", n), boolVars(reg, "l", n)
	terms := make([]expr.Expr, n)
	for i := range terms {
		terms[i] = expr.Product(os[i], ls[i])
	}
	return expr.Sum(terms...)
}

// sigmaSum is [Σ xi⊗qi ≥ c]·[Σ xi ≠ 0], the annotation step I gives a
// selection over a SUM.
func sigmaSum(reg *vars.Registry, n int, c int64) expr.Expr {
	xs := boolVars(reg, "x", n)
	terms := make([]expr.Expr, n)
	for i, x := range xs {
		terms[i] = expr.Scale(algebra.Sum, x, value.Int(int64(1+i*7%50)))
	}
	return expr.Product(
		expr.Compare(value.GE, expr.MSum(algebra.Sum, terms...), expr.MInt(c)),
		expr.Compare(value.NE, expr.Sum(xs...), expr.CInt(0)),
	)
}

type samplerCase struct {
	name string
	e    expr.Expr
	reg  *vars.Registry
	s    algebra.Semiring
}

func samplerCases() []samplerCase {
	var cases []samplerCase
	add := func(name string, s algebra.Semiring, build func(reg *vars.Registry) expr.Expr) {
		reg := vars.NewRegistry()
		cases = append(cases, samplerCase{name: name + "/" + s.Kind().String(), e: build(reg), reg: reg, s: s})
	}
	for _, s := range bothSemirings {
		for _, n := range []int{1, 3, 7, 100} {
			add(fmt.Sprintf("or%d", n), s, func(reg *vars.Registry) expr.Expr { return expr.Sum(boolVars(reg, "x", n)...) })
		}
		add("or-of-products", s, func(reg *vars.Registry) expr.Expr { return orOfProducts(reg, 12) })
		add("sigma-sum", s, func(reg *vars.Registry) expr.Expr { return sigmaSum(reg, 9, 60) })
		// §7.1 conditionals, one- and two-sided.
		for _, agg := range []algebra.Agg{algebra.Sum, algebra.Min, algebra.Max, algebra.Count} {
			for th := value.EQ; th <= value.GT; th++ {
				for r := 0; r <= 2; r += 2 {
					p := gen.Params{L: 3, R: r, NumVars: 8, NumClauses: 2, NumLiterals: 2, MaxV: 20,
						AggL: agg, AggR: agg, Theta: th, C: 7, VarProb: 0.4, Seed: int64(agg)*100 + int64(th)*10 + int64(r)}
					inst := gen.MustNew(p)
					cases = append(cases, samplerCase{
						name: fmt.Sprintf("gen/%v%vR%d/%v", agg, th, r, s.Kind()), e: inst.Expr, reg: inst.Registry, s: s})
				}
			}
		}
		// A module-kind root, whose outcomes are monoid values.
		add("module-root", s, func(reg *vars.Registry) expr.Expr {
			xs := boolVars(reg, "x", 4)
			return expr.MSum(algebra.Min, expr.Scale(algebra.Min, xs[0], value.Int(5)), expr.Scale(algebra.Min, expr.Product(xs[1], xs[2]), value.Int(3)), expr.Scale(algebra.Min, xs[3], value.Int(9)))
		})
		// p = 1 leaves a one-pair support; it still consumes its draw.
		add("certain", s, func(reg *vars.Registry) expr.Expr {
			reg.DeclareBool("sure", 1)
			reg.DeclareBool("never", 0)
			reg.DeclareBool("x", 0.5)
			return expr.MustParse("sure*x + never")
		})
		// Comparisons between 0S/1S operands stay in bit columns.
		for th := value.EQ; th <= value.GT; th++ {
			add(fmt.Sprintf("bit-cmp%v", th), s, func(reg *vars.Registry) expr.Expr {
				xs := boolVars(reg, "x", 3)
				return expr.Sum(expr.Compare(th, xs[0], expr.Product(xs[1], xs[2])), expr.Compare(th, expr.CInt(1), xs[1]))
			})
		}
		// Expressions Validate would reject still evaluate as Eval does:
		// empty sums and products, module values where semiring ones belong.
		add("ill-sorted", s, func(reg *vars.Registry) expr.Expr {
			xs := boolVars(reg, "x", 3)
			return expr.Add{Terms: []expr.Expr{
				expr.Mul{Factors: []expr.Expr{expr.MInt(5), xs[0], expr.Mul{}}},
				expr.Add{},
				expr.Cmp{Th: value.LT, L: expr.AggSum{Agg: algebra.Max}, R: expr.Tensor{Agg: algebra.Max, Scalar: expr.Scale(algebra.Sum, xs[1], value.Int(3)), Mod: expr.MInt(4)}},
				expr.Mul{Factors: []expr.Expr{xs[2]}},
			}}
		})
		add("const-only", s, func(*vars.Registry) expr.Expr { return expr.MustParse("[2 <= 3]*1") })
		add("const-sum", s, func(*vars.Registry) expr.Expr { return expr.Sum(expr.CInt(2), expr.CInt(3)) })
	}
	// Multi-valued variables, which only the N semiring tells apart.
	multi := func(reg *vars.Registry) (x, y expr.Expr) {
		reg.Declare("x", prob.FromPairs([]prob.Pair{{V: value.Int(0), P: 0.2}, {V: value.Int(1), P: 0.3}, {V: value.Int(2), P: 0.4}, {V: value.Int(5), P: 0.1}}))
		reg.Declare("y", prob.FromPairs([]prob.Pair{{V: value.Int(1), P: 0.5}, {V: value.Int(3), P: 0.5}}))
		reg.DeclareBool("z", 0.6)
		return expr.V("x"), expr.V("y")
	}
	for _, s := range bothSemirings {
		add("multi-tensor", s, func(reg *vars.Registry) expr.Expr {
			x, y := multi(reg)
			return expr.Scale(algebra.Sum, expr.Product(x, y), value.Int(5))
		})
		add("multi-cond", s, func(reg *vars.Registry) expr.Expr {
			x, y := multi(reg)
			z := expr.V("z")
			return expr.Product(z, expr.Compare(value.GT,
				expr.MSum(algebra.Sum, expr.Scale(algebra.Sum, expr.Sum(x, z), value.Int(2)), expr.Scale(algebra.Sum, y, value.Int(3))),
				expr.MSum(algebra.Sum, expr.Scale(algebra.Sum, expr.Product(x, y, z), value.Int(1)))))
		})
		add("multi-prod", s, func(reg *vars.Registry) expr.Expr {
			x, y := multi(reg)
			return expr.MSum(algebra.Prod, expr.NewTensor(algebra.Prod, x, expr.MInt(2)), expr.NewTensor(algebra.Prod, y, expr.MSum(algebra.Prod, expr.MInt(3), expr.MInt(1))))
		})
		add("multi-semiring", s, func(reg *vars.Registry) expr.Expr {
			x, y := multi(reg)
			return expr.Sum(expr.Product(x, y), expr.V("z"), expr.Compare(value.LE, x, y))
		})
	}
	return cases
}

// TestSamplerMatchesReference is the bit-for-bit contract: at a given
// seed the compiled sampler's estimate has the pairs of the loop it
// replaced, exactly, and leaves the generator in the same state — through
// the MonteCarloCtx wrapper and through one Sampler reused across every
// case, as an engine worker reuses its own.
func TestSamplerMatchesReference(t *testing.T) {
	ctx := context.Background()
	var shared worlds.Sampler
	for _, c := range samplerCases() {
		for _, n := range []int{1, 63, 64, 65, 1000, 1025} {
			seed := int64(n) + 17
			refRng := rand.New(rand.NewSource(seed))
			want, err := referenceMonteCarloCtx(ctx, c.e, c.reg, c.s, n, refRng)
			if err != nil {
				t.Fatalf("%s n=%d: reference: %v", c.name, n, err)
			}
			next := refRng.Int63()
			for _, run := range []struct {
				name   string
				sample func(rng *rand.Rand) (prob.Dist, error)
			}{
				{"wrapper", func(rng *rand.Rand) (prob.Dist, error) { return worlds.MonteCarloCtx(ctx, c.e, c.reg, c.s, n, rng) }},
				{"reused", func(rng *rand.Rand) (prob.Dist, error) { return shared.Sample(ctx, c.e, c.reg, c.s, n, rng) }},
			} {
				rng := rand.New(rand.NewSource(seed))
				got, err := run.sample(rng)
				if err != nil {
					t.Fatalf("%s n=%d %s: %v", c.name, n, run.name, err)
				}
				if !reflect.DeepEqual(got.Pairs(), want.Pairs()) {
					t.Errorf("%s n=%d %s:\n got %v\nwant %v", c.name, n, run.name, got, want)
				}
				if rng.Int63() != next {
					t.Errorf("%s n=%d %s: generator left in a different state", c.name, n, run.name)
				}
			}
		}
	}
}

// TestSamplerErrorsMatchReference: the failures the old loop reported are
// reported still, in the same order of precedence.
func TestSamplerErrorsMatchReference(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		e    expr.Expr
		n    int
	}{
		{"undeclared", context.Background(), expr.MustParse("x + ghost*x"), 10},
		{"undeclared before count", context.Background(), expr.MustParse("ghost"), 0},
		{"zero samples", context.Background(), expr.MustParse("x"), 0},
		{"negative samples", context.Background(), expr.MustParse("x"), -3},
		{"cancelled before all", cancelled, expr.MustParse("ghost"), 0},
	} {
		for _, s := range bothSemirings {
			_, want := referenceMonteCarloCtx(c.ctx, c.e, reg, s, c.n, rand.New(rand.NewSource(1)))
			_, got := worlds.MonteCarloCtx(c.ctx, c.e, reg, s, c.n, rand.New(rand.NewSource(1)))
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Errorf("%s/%v: got error %v, want %v", c.name, s.Kind(), got, want)
			}
		}
	}
}

// tupleSeedStride is engine's: tuple i samples from Seed + i·stride.
const tupleSeedStride = 0x9E3779B97F4A7C15

// TestSamplerThroughEngine: the worker path — one Sampler and one
// re-seeded generator per worker — gives every tuple the reference's
// estimate for its own stream, at parallelism 1 and 4.
func TestSamplerThroughEngine(t *testing.T) {
	for _, kind := range []algebra.SemiringKind{algebra.Boolean, algebra.Natural} {
		db := pvc.NewDatabase(kind)
		rel := pvc.NewRelation("R", pvc.Schema{{Name: "a", Type: pvc.TValue}})
		var names []expr.Expr
		for i := int64(0); i < 40; i++ {
			x, err := db.InsertIndependent(rel, 0.2+0.015*float64(i), pvc.IntCell(i))
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, expr.V(x))
		}
		// Annotations of different shapes and sizes, so a worker's scratch
		// shrinks and grows from tuple to tuple.
		for i := range rel.Tuples {
			switch i % 4 {
			case 1:
				rel.Tuples[i].Ann = expr.Sum(names[i%7 : i%7+1+i%11]...)
			case 2:
				rel.Tuples[i].Ann = expr.Compare(value.NE, expr.Sum(names[i-2], expr.Product(names[i], names[i-1])), expr.CInt(0))
			case 3:
				rel.Tuples[i].Ann = expr.Compare(value.GE, expr.MSum(algebra.Sum,
					expr.Scale(algebra.Sum, names[i], value.Int(30)), expr.Scale(algebra.Sum, names[i-3], value.Int(25))), expr.MInt(30))
			}
		}
		db.Add(rel)
		const samples, seed = 300, 11
		var want []float64
		for i, tup := range rel.Tuples {
			rng := rand.New(rand.NewSource(int64(uint64(seed) + uint64(i)*tupleSeedStride)))
			d, err := referenceMonteCarloCtx(context.Background(), tup.Ann, db.Registry, db.Semiring(), samples, rng)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, d.TruthProbability())
		}
		for _, par := range []int{1, 4} {
			out, err := engine.Outcomes(context.Background(), db, rel, engine.ExecConfig{Samples: samples, Seed: seed, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range out {
				lo, hi := worlds.Hoeffding95(want[i], samples)
				if o.Confidence.Lo != lo || o.Confidence.Hi != hi {
					t.Errorf("%v parallelism %d tuple %d: [%v, %v], reference [%v, %v]", kind, par, i, o.Confidence.Lo, o.Confidence.Hi, lo, hi)
				}
			}
		}
	}
}

// TestSampleCoverage: the 95 % Hoeffding interval around the sampled
// truth probability contains the exact one, from possible-worlds
// enumeration, for at least 95 % of 300 fixed seeds.
func TestSampleCoverage(t *testing.T) {
	reg := vars.NewRegistry()
	e := sigmaSum(reg, 6, 40)
	for _, s := range bothSemirings {
		exact, err := worlds.Enumerate(e, reg, s)
		if err != nil {
			t.Fatal(err)
		}
		p := exact.TruthProbability()
		const seeds, n = 300, 200
		var sm worlds.Sampler
		covered := 0
		for seed := int64(0); seed < seeds; seed++ {
			d, err := sm.Sample(context.Background(), e, reg, s, n, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if lo, hi := worlds.Hoeffding95(d.TruthProbability(), n); lo <= p && p <= hi {
				covered++
			}
		}
		if covered*100 < seeds*95 {
			t.Errorf("%v: exact p=%v inside %d of %d intervals, want >= 95%%", s.Kind(), p, covered, seeds)
		}
	}
}

// cancelAfter is a context that reports cancellation from its n-th
// Err() poll on.
type cancelAfter struct {
	context.Context
	polls, after int
}

func (c *cancelAfter) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// countingSource counts the draws made from the source it wraps.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.Source.Int63()
}

// TestSampleCancellation: the batched loop polls its context every 1024
// worlds and stops at the first poll that fails, having drawn exactly the
// worlds before it; and polling itself draws nothing, so a run that is
// polled but not cancelled is the unpolled estimate.
func TestSampleCancellation(t *testing.T) {
	reg := vars.NewRegistry()
	e := expr.Sum(boolVars(reg, "x", 3)...)
	s := algebra.SemiringFor(algebra.Boolean)
	const n = 5000
	for polls := 1; polls <= 4; polls++ {
		// The entry check is poll 1; the loop's k-th poll comes before
		// world 1024·k.
		ctx := &cancelAfter{Context: context.Background(), after: polls}
		src := &countingSource{Source: rand.NewSource(5)}
		_, err := worlds.MonteCarloCtx(ctx, e, reg, s, n, rand.New(src))
		if err != context.Canceled {
			t.Fatalf("cancelled at poll %d: err = %v", polls+1, err)
		}
		if want := 1024 * polls * 3; src.draws != want {
			t.Errorf("cancelled at poll %d: %d draws, want %d (3 variables × %d worlds)", polls+1, src.draws, want, 1024*polls)
		}
	}
	polled := &cancelAfter{Context: context.Background(), after: 1 << 30}
	got, err := worlds.MonteCarloCtx(polled, e, reg, s, n, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if polled.polls != 1+(n-1)/1024 {
		t.Errorf("%d polls over %d worlds, want %d", polled.polls, n, 1+(n-1)/1024)
	}
	want, err := worlds.MonteCarloCtx(context.Background(), e, reg, s, n, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Pairs(), want.Pairs()) {
		t.Errorf("polled %v, unpolled %v", got, want)
	}
}

var benchSink prob.Dist

// BenchmarkMonteCarlo times one estimate of 1000 worlds (and, for one
// shape, of 10000: its allocations must not grow with the world count) on
// a Sampler kept across estimates, as an engine worker keeps its own.
func BenchmarkMonteCarlo(b *testing.B) {
	type shape struct {
		name   string
		worlds int
		build  func(reg *vars.Registry) expr.Expr
	}
	or := func(n int) func(reg *vars.Registry) expr.Expr {
		return func(reg *vars.Registry) expr.Expr { return expr.Sum(boolVars(reg, "x", n)...) }
	}
	for _, sh := range []shape{
		{"or4", 1000, or(4)},
		{"or40", 1000, or(40)},
		{"or40/10000worlds", 10000, or(40)},
		{"or2000", 1000, or(2000)},
		{"or40products", 1000, func(reg *vars.Registry) expr.Expr { return orOfProducts(reg, 40) }},
		{"sigma-sum7", 1000, func(reg *vars.Registry) expr.Expr { return sigmaSum(reg, 7, 100) }},
	} {
		b.Run(sh.name, func(b *testing.B) {
			reg := vars.NewRegistry()
			e := sh.build(reg)
			s := algebra.SemiringFor(algebra.Boolean)
			rng := rand.New(rand.NewSource(1))
			var sm worlds.Sampler
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := sm.Sample(context.Background(), e, reg, s, sh.worlds, rng)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = d
			}
		})
	}
}
