package compile

import (
	"fmt"
	"math/rand"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
	"pvcagg/internal/worlds"
)

// guardCase is one generated product guard ⊙ comparison (⊙ bystander)
// with the test's own account of rule (a)'s side conditions.
type guardCase struct {
	what    string
	s       algebra.Semiring
	reg     *vars.Registry
	guard   expr.Expr // [Ψ1+…+Ψm ≠ 0]
	cmp     expr.Expr // [Φ1⊗m1 +M … θ c]
	extra   expr.Expr // an unrelated factor, or nil
	implied bool      // every side condition of rule (a) holds
}

func (g guardCase) factors() []expr.Expr {
	fs := []expr.Expr{g.guard, g.cmp}
	if g.extra != nil {
		fs = append(fs, g.extra)
	}
	return fs
}

// randomGuardCase draws a group of n rows and breaks at most one side
// condition of rule (a): variant 0 breaks none, 1 leaves one scalar out
// of the guard, 2 adds a constant (non-tensor) term to the module sum, 3
// gives one guard variable a negative support (N only: B normalises it
// away), 4 scales scalars by N constants > 1 (breaks nothing). Whether
// [0M θ c] is true is left to the draw of θ and c.
func randomGuardCase(r *rand.Rand, variant int) guardCase {
	g := guardCase{s: algebra.SemiringFor(algebra.Boolean), reg: vars.NewRegistry()}
	natural := r.Intn(2) == 0 || variant >= 3
	if natural {
		g.s = algebra.SemiringFor(algebra.Natural)
	}
	dyadic := []float64{0.5, 0.25, 0.75, 0.125}
	declare := func(name string) expr.Expr {
		p := dyadic[r.Intn(len(dyadic))]
		if natural && r.Intn(3) == 0 {
			g.reg.Declare(name, prob.FromPairs([]prob.Pair{{V: value.Int(0), P: 1 - p}, {V: value.Int(1), P: p / 2}, {V: value.Int(2), P: p / 2}}))
		} else {
			g.reg.DeclareBool(name, p)
		}
		return expr.V(name)
	}
	agg := []algebra.Agg{algebra.Sum, algebra.Count, algebra.Min, algebra.Max, algebra.Prod}[r.Intn(5)]
	n := 1 + r.Intn(5)
	var psis, terms []expr.Expr
	for i := 0; i < n; i++ {
		phi := declare(fmt.Sprintf("x%d", i))
		if r.Intn(3) == 0 {
			phi = expr.Product(phi, declare(fmt.Sprintf("y%d", i)))
		}
		if variant == 4 && agg != algebra.Prod && r.Intn(2) == 0 {
			phi = expr.Product(phi, expr.CInt(int64(2+r.Intn(2))))
		}
		m := int64(1 + r.Intn(4))
		switch agg {
		case algebra.Count:
			m = 1
		case algebra.Prod: // not the neutral 1, and m^s far from int64 overflow
			m = int64(2 + r.Intn(2))
		}
		psis = append(psis, phi)
		terms = append(terms, expr.Scale(agg, phi, value.Int(m)))
	}
	g.implied = true
	switch variant {
	case 1:
		drop := r.Intn(n)
		psis = append(psis[:drop:drop], psis[drop+1:]...)
		g.implied = false
	case 2:
		terms = append(terms, expr.MInt(int64(2+r.Intn(3))))
		g.implied = false
	case 3:
		g.reg.Declare("neg", prob.FromPairs([]prob.Pair{{V: value.Int(-1), P: 0.25}, {V: value.Int(0), P: 0.25}, {V: value.Int(1), P: 0.5}}))
		psis = append(psis, expr.V("neg"))
		g.implied = false
	}
	if r.Intn(2) == 0 { // a guard over more than the comparison's scalars
		psis = append(psis, declare("w"))
	}
	r.Shuffle(len(psis), func(i, j int) { psis[i], psis[j] = psis[j], psis[i] })
	th := []value.Theta{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE}[r.Intn(6)]
	c := value.Int(int64(r.Intn(9) - 1))
	if th.Apply(algebra.MonoidFor(agg).Neutral(), c) {
		g.implied = false
	}
	if len(psis) == 0 { // variant 1 at n = 1: no guard left to test
		psis = []expr.Expr{declare("w")}
	}
	g.guard = expr.Compare(value.NE, expr.Sum(psis...), expr.CInt(0))
	g.cmp = expr.Compare(th, expr.MSum(agg, terms...), expr.MConst{V: c})
	if r.Intn(3) == 0 {
		g.extra = expr.Sum(declare("u"), declare("v"))
	}
	g.what = fmt.Sprintf("variant %d over %v: %s", variant, g.s.Kind(), expr.String(expr.Product(g.factors()...)))
	return g
}

// TestPruneProductSoundness: rule (a) fires exactly when its side
// conditions hold — on instances where each is broken in turn — and
// whatever the two rules do, the compiled distribution equals
// possible-worlds enumeration (tolerance 0: the marginals are dyadic),
// with pruning and without, through the exact compiler and the anytime
// engine, and Stats.PrunedGuards counts what was removed.
func TestPruneProductSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	fired := map[bool]int{}
	for trial := 0; trial < 600; trial++ {
		g := randomGuardCase(r, trial%5)
		// Simplify as the compiler does before it looks at the product.
		simp := make([]expr.Expr, 0, 3)
		for _, f := range g.factors() {
			simp = append(simp, expr.Simplify(f, g.s))
		}
		guardCmp, isCmp := simp[0].(expr.Cmp)
		if !isCmp {
			continue // the guard folded to a constant: nothing to prune
		}
		// Rule (b) on its own account, factor by factor.
		decidedTrue, decidedFalse, guardDecided := 0, false, false
		for i, f := range simp {
			cm, ok := f.(expr.Cmp)
			if !ok {
				continue
			}
			l, rhs, th := orient(cm)
			cv, _ := constOf(rhs)
			if decided, res := decideCmp(g.s, g.reg, l, th, cv); decided {
				decidedFalse = decidedFalse || !res
				decidedTrue++
				guardDecided = guardDecided || i == 0
			}
		}
		out, removed := pruneProduct(g.s, g.reg, simp)
		_, cmpStands := simp[1].(expr.Cmp)
		wantImplied := g.implied && cmpStands && !guardDecided
		switch {
		case decidedFalse:
			if c, ok := out.(expr.Const); !ok || !c.V.IsZero() {
				t.Fatalf("%s: a factor is decided false, product pruned to %v", g.what, out)
			}
		case wantImplied && removed != decidedTrue+1:
			t.Fatalf("%s: side conditions hold, %d factors removed (decided: %d)", g.what, removed, decidedTrue)
		case !wantImplied && removed != decidedTrue:
			t.Fatalf("%s: side conditions broken, %d factors removed (decided: %d): %v", g.what, removed, decidedTrue, out)
		}
		if removed > 0 && !decidedFalse {
			fired[wantImplied]++
			for _, f := range factorsOf(out) {
				if wantImplied && expr.Equal(f, guardCmp) {
					t.Fatalf("%s: implied guard still in %s", g.what, expr.String(out))
				}
			}
		}

		e := expr.Product(g.factors()...)
		want, err := worlds.Enumerate(e, g.reg, g.s)
		if err != nil {
			t.Fatalf("%s: %v", g.what, err)
		}
		for _, o := range []Options{{}, {DisablePruning: true}} {
			c := New(g.s, g.reg, o)
			res := mustCompile(t, c, e)
			got, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: g.s, Registry: g.reg})
			if err != nil {
				t.Fatalf("%s: %v", g.what, err)
			}
			if !got.Equal(want, 0) {
				t.Fatalf("%s (%+v):\n got %v\nwant %v", g.what, o, got, want)
			}
			if o.DisablePruning && res.Stats.PrunedGuards+res.Stats.PrunedTerms != 0 {
				t.Fatalf("%s: pruned with pruning disabled: %+v", g.what, res.Stats)
			}
			if !o.DisablePruning && res.Stats.PrunedGuards < removed {
				t.Fatalf("%s: pruneProduct removes %d factors, Stats.PrunedGuards = %d", g.what, removed, res.Stats.PrunedGuards)
			}
		}
		b, _, err := Approximate(g.s, g.reg, e, ApproxOptions{Eps: 0.05, MaxLeafNodes: 4})
		if err != nil {
			t.Fatalf("%s: %v", g.what, err)
		}
		if p := want.TruthProbability(); !b.Contains(p, 0) || b.Width() > 0.05 {
			t.Fatalf("%s: anytime bounds %v, worlds say %v", g.what, b, p)
		}
	}
	if fired[true] < 50 || fired[false] < 50 {
		t.Errorf("generator is lopsided: rule (a) fired %d times, rule (b) alone %d times", fired[true], fired[false])
	}
}

func factorsOf(e expr.Expr) []expr.Expr {
	if m, ok := e.(expr.Mul); ok {
		return m.Factors
	}
	return []expr.Expr{e}
}

// TestDisablePruningReproducesParent pins the d-trees of the ablation:
// with DisablePruning the product-level rules are off along with the
// rest, and the statistics are those of the commit before the rules
// existed, so cmd/experiments' pruning ablation still measures the whole
// of Section 5's optimisation. With pruning on, σ over one aggregate
// needs no ⊔ where rule (a) applies and one per variable where only rule
// (b) does; the product of two comparisons (third case) stays as it was.
func TestDisablePruningReproducesParent(t *testing.T) {
	names := []string{"x1", "x2", "x3", "x4", "x5"}
	for _, c := range []struct {
		src    string
		kind   algebra.SemiringKind
		parent Stats // at commit 38ac4b5, Options{DisablePruning: true}
		ok     int   // Shannon expansions allowed with pruning on
	}{
		{"[x1 + x2 + x3 + x4 + x5 != 0]*[sum(x1 @sum 3, x2 @sum 1, x3 @sum 4, x4 @sum 1, x5 @sum 5) >= 7]",
			algebra.Boolean, Stats{Shannon: 24, CacheHits: 5, Nodes: 44}, 0},
		{"[x1 + x2 + x3 + x4 + x5 != 0]*[sum(x1 @sum 3, x2 @sum 1, x3 @sum 4, x4 @sum 1, x5 @sum 5) >= 7]",
			algebra.Natural, Stats{Shannon: 27, CacheHits: 4, Nodes: 51}, 0},
		{"[x1 + x2 + x3 + x4 + x5 != 0]*[sum(x1 @sum 3, x2 @sum 1, x3 @sum 4, x4 @sum 1, x5 @sum 5) <= 7]",
			algebra.Boolean, Stats{Shannon: 24, CacheHits: 5, Nodes: 44}, 5},
		{"[x1 + x2 + x3 + x4 + x5 != 0]*[sum(x1 @sum 3, x2 @sum 1, x3 @sum 4, x4 @sum 1, x5 @sum 5) <= 7]",
			algebra.Natural, Stats{Shannon: 27, CacheHits: 4, Nodes: 51}, 5},
		{"[x1 + x2 + x3 != 0]*[min(x1 @min 3, x2 @min 1, x3 @min 4) >= 2]*[max(x1 @max 3, x2 @max 1, x3 @max 4) <= 3]",
			algebra.Boolean, Stats{Shannon: 7, Nodes: 15}, 7},
		{"[x1*x2 + x3 != 0]*[count(x1*x2 @count 1, x3 @count 1) < 2]*(x4 + x5)",
			algebra.Natural, Stats{SumSplits: 1, ProductSplits: 1, Shannon: 4, CacheHits: 1, Nodes: 12}, 3},
	} {
		s, reg, e := algebra.SemiringFor(c.kind), boolReg(0.5, names...), expr.MustParse(c.src)
		if got := mustCompile(t, New(s, reg, Options{DisablePruning: true}), e).Stats; got != c.parent {
			t.Errorf("%v %s with pruning disabled:\n got %+v\nwant %+v", c.kind, c.src, got, c.parent)
		}
		if got := mustCompile(t, New(s, reg, Options{}), e).Stats; got.PrunedGuards == 0 || got.Shannon > c.ok {
			t.Errorf("%v %s with pruning: %+v, want guards pruned and at most %d Shannon expansions", c.kind, c.src, got, c.ok)
		}
	}
}
