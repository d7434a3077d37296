// Differential, convergence and acceptance tests of the anytime
// approximate probability engine: bounds must always bracket the exact
// probability (against both the exact compiler and possible-worlds
// enumeration), tighten monotonically as the frontier expands, converge
// to a point when asked to, and beat exact compilation by an
// order of magnitude in expanded nodes on hard instances. The exact
// compiler's own generated-instance differential lives here too: gen
// imports engine, which imports compile, so it needs the external
// package.
package compile_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/dtree"
	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/gen"
	"pvcagg/internal/prob"
	"pvcagg/internal/testutil"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
	"pvcagg/internal/worlds"
)

// exactTruth is the exact strategy's truth probability of e.
func exactTruth(reg *vars.Registry, e expr.Expr) (float64, error) {
	b, _, _, err := engine.Interpret(context.Background(), algebra.SemiringFor(algebra.Boolean), reg, e, engine.ExecConfig{})
	return b.Lo, err
}

// fuzzParams enumerates the random-expression grid of the differential
// fuzz tests: every aggregation monoid and comparison operator, one- and
// two-sided comparisons, over a handful of logged seeds. Variable counts
// stay small enough for possible-worlds enumeration.
func fuzzParams(seeds int) []gen.Params {
	var out []gen.Params
	aggs := []algebra.Agg{algebra.Min, algebra.Max, algebra.Sum, algebra.Count}
	thetas := []value.Theta{value.LE, value.GE, value.EQ}
	for _, agg := range aggs {
		for _, th := range thetas {
			for _, twoSided := range []bool{false, true} {
				for s := int64(1); s <= int64(seeds); s++ {
					p := gen.Params{
						L: 5, NumVars: 8, NumClauses: 2, NumLiterals: 2,
						MaxV: 12, AggL: agg, Theta: th, C: 8, Seed: s,
					}
					if twoSided {
						p.R = 3
						p.AggR = aggs[(int(agg)+1)%len(aggs)]
					}
					out = append(out, p)
				}
			}
		}
	}
	return out
}

// diffParams enumerates the instance grid of the exact compiler's
// differential test: 3 sizes × 3 shapes × 4 aggregation monoids × 3
// comparison operators = 108 instances, each with its own seed.
func diffParams() []gen.Params {
	aggs := []algebra.Agg{algebra.Min, algebra.Max, algebra.Sum, algebra.Count}
	thetas := []value.Theta{value.LE, value.GE, value.EQ}
	var out []gen.Params
	seed := int64(0)
	for _, size := range []struct{ v, l, r int }{{4, 3, 0}, {6, 5, 0}, {8, 6, 3}} {
		for _, shape := range []struct{ cl, lit int }{{1, 2}, {2, 1}, {2, 2}} {
			for _, agg := range aggs {
				for _, th := range thetas {
					seed++
					out = append(out, gen.Params{
						L:           size.l,
						R:           size.r,
						NumVars:     size.v,
						NumClauses:  shape.cl,
						NumLiterals: shape.lit,
						MaxV:        10,
						AggL:        agg,
						AggR:        agg,
						Theta:       th,
						C:           5,
						Seed:        seed,
					})
				}
			}
		}
	}
	return out
}

// TestParallelCompileDifferential compiles the 108 grid instances
// concurrently — one Compiler per goroutine, the way the engine's
// per-tuple fan-out runs them — and requires every root to be a valid
// d-tree (Definition 7) whose distribution equals brute-force
// possible-worlds enumeration. Under -race it is also the check that
// concurrent compilations share nothing but the interning tables and
// pools.
func TestParallelCompileDifferential(t *testing.T) {
	params := diffParams()
	if len(params) < 100 {
		t.Fatalf("differential grid has %d < 100 instances", len(params))
	}
	s := algebra.SemiringFor(algebra.Boolean)
	for _, p := range params {
		name := fmt.Sprintf("%s/%s/v%d/L%d/R%d/seed%d", p.AggL, p.Theta, p.NumVars, p.L, p.R, p.Seed)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			inst := gen.MustNew(p)
			res, err := compile.New(s, inst.Registry, compile.Options{}).CompileCtx(context.Background(), inst.Expr)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if err := dtree.Validate(res.Root); err != nil {
				t.Fatalf("d-tree violates Definition 7: %v", err)
			}
			got, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: inst.Registry})
			if err != nil {
				t.Fatalf("evaluate: %v", err)
			}
			brute, err := worlds.Enumerate(inst.Expr, inst.Registry, s)
			if err != nil {
				t.Fatalf("enumerate: %v", err)
			}
			if !got.Equal(brute, 1e-9) {
				t.Fatalf("compiled %v != possible worlds %v", got, brute)
			}
		})
	}
}

// TestApproxDifferentialFuzz checks, on ≥150 random conditional
// expressions, that the anytime bounds bracket the exact truth probability
// computed independently by the exact compiler and by possible-worlds
// enumeration, and that converged runs honour the requested width.
func TestApproxDifferentialFuzz(t *testing.T) {
	s := algebra.SemiringFor(algebra.Boolean)
	params := fuzzParams(7)
	if len(params) < 150 {
		t.Fatalf("fuzz grid has only %d instances, want ≥ 150", len(params))
	}
	epss := []float64{0.3, 0.1, 0.02}
	for i, p := range params {
		inst, err := gen.NewWithRand(p, gen.SeededRand(p.Seed))
		if err != nil {
			t.Fatalf("params %+v: %v", p, err)
		}
		exact, err := exactTruth(inst.Registry, inst.Expr)
		if err != nil {
			t.Fatalf("seed %d params %+v: exact: %v", p.Seed, p, err)
		}
		enum, err := worlds.Enumerate(inst.Expr, inst.Registry, s)
		if err != nil {
			t.Fatalf("seed %d params %+v: enumerate: %v", p.Seed, p, err)
		}
		eps := epss[i%len(epss)]
		b, rep, err := compile.ApproximateCtx(context.Background(), s, inst.Registry, inst.Expr,
			compile.ApproxOptions{Eps: eps, MaxLeafNodes: 32})
		if err != nil {
			t.Fatalf("seed %d params %+v: approximate: %v", p.Seed, p, err)
		}
		if !b.Contains(exact, 1e-9) {
			t.Errorf("seed %d params %+v: exact %v outside bounds %v", p.Seed, p, exact, b)
		}
		if pt := enum.TruthProbability(); !b.Contains(pt, 1e-9) {
			t.Errorf("seed %d params %+v: enumerated %v outside bounds %v", p.Seed, p, pt, b)
		}
		if rep.Converged && b.Width() > eps+1e-12 {
			t.Errorf("seed %d params %+v: converged but width %v > eps %v", p.Seed, p, b.Width(), eps)
		}
		if !rep.Converged {
			t.Errorf("seed %d params %+v: did not converge within default budgets", p.Seed, p)
		}
	}
}

// TestAnytimeNeverRebuilds is the contract of the run's one compiler: an
// anytime run builds each sub-d-tree once, so converged to a point it has
// built little more than the exact d-tree — a closure attempt that runs
// out of budget is resumed, not rebuilt. MaxLeafNodes is tiny so that
// almost every closure runs out at least once. On the self-join shape
// (Σ_{i<j} xi·xj at p = 0.9), where every attempt the frontier makes
// before the answer converges at ε = 0.05 runs out, what it built must be
// reached by the closures that follow.
func TestAnytimeNeverRebuilds(t *testing.T) {
	s := algebra.SemiringFor(algebra.Boolean)
	worst := 0.0
	for _, p := range fuzzParams(7) {
		inst, err := gen.NewWithRand(p, gen.SeededRand(p.Seed))
		if err != nil {
			t.Fatalf("params %+v: %v", p, err)
		}
		res, err := compile.New(s, inst.Registry, compile.Options{}).CompileCtx(context.Background(), inst.Expr)
		if err != nil {
			t.Fatalf("seed %d params %+v: exact: %v", p.Seed, p, err)
		}
		b, rep, err := compile.ApproximateCtx(context.Background(), s, inst.Registry, inst.Expr,
			compile.ApproxOptions{Eps: 1e-12, MaxLeafNodes: 8})
		if err != nil {
			t.Fatalf("seed %d params %+v: approximate: %v", p.Seed, p, err)
		}
		if b.Width() != 0 {
			t.Errorf("seed %d params %+v: bounds %v, want a point", p.Seed, p, b)
		}
		built := rep.ExactNodes + rep.WastedNodes
		if 2*built > 3*res.Stats.Nodes {
			t.Errorf("seed %d params %+v: anytime built %d d-tree nodes (%d never evaluated), exact compilation %d: more than 1.5×",
				p.Seed, p, built, rep.WastedNodes, res.Stats.Nodes)
		}
		worst = max(worst, float64(built)/float64(res.Stats.Nodes))
	}
	t.Logf("worst built/exact ratio %.3f", worst)

	reg, e := compile.SelfJoinPairs(15, 0.9)
	_, rep, err := compile.ApproximateCtx(context.Background(), s, reg, e, compile.ApproxOptions{Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if 20*rep.WastedNodes > rep.TotalNodes() {
		t.Errorf("self-join pairs: %d of %d nodes never evaluated, want ≤ 5%%", rep.WastedNodes, rep.TotalNodes())
	}
	t.Logf("self-join pairs: %+v", rep)
}

// TestApproxMonotoneTightening checks the anytime property on prefixes of
// one run: stopping after k = 1, 2, … Shannon expansions (MaxExpansions)
// gives intervals each nested in the one before, the exact probability
// stays inside all of them, and the last prefix — the first that runs out
// of frontier or reaches ε before its budget — is the unbounded run.
func TestApproxMonotoneTightening(t *testing.T) {
	s := algebra.SemiringFor(algebra.Boolean)
	for seed := int64(1); seed <= 10; seed++ {
		p := gen.Params{
			L: 12, R: 6, NumVars: 12, NumClauses: 2, NumLiterals: 2,
			MaxV: 30, AggL: algebra.Min, AggR: algebra.Count, Theta: value.LE, Seed: seed,
		}
		inst := gen.MustNew(p)
		exact, err := exactTruth(inst.Registry, inst.Expr)
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		opts := compile.ApproxOptions{Eps: 0.01, MaxLeafNodes: 16} // force real frontier expansions
		full, fullRep, err := compile.ApproximateCtx(context.Background(), s, inst.Registry, inst.Expr, opts)
		if err != nil {
			t.Fatalf("seed %d: approximate: %v", seed, err)
		}
		if fullRep.Expansions == 0 {
			t.Fatalf("seed %d: the run expanded nothing", seed)
		}
		const tol = 1e-9
		prev := compile.Bounds{Lo: 0, Hi: 1}
		for k := 1; ; k++ {
			opts.MaxExpansions = k
			b, rep, err := compile.ApproximateCtx(context.Background(), s, inst.Registry, inst.Expr, opts)
			if err != nil {
				t.Fatalf("seed %d k %d: approximate: %v", seed, k, err)
			}
			if !b.Contains(exact, tol) {
				t.Errorf("seed %d k %d: exact %v outside %v", seed, k, exact, b)
			}
			if b.Lo < prev.Lo-tol || b.Hi > prev.Hi+tol {
				t.Errorf("seed %d k %d: interval %v not nested in %v", seed, k, b, prev)
			}
			prev = b
			if rep.Expansions < k || rep.Converged {
				if b != full || rep != fullRep {
					t.Errorf("seed %d: last prefix (k %d) %v %+v, unbounded run %v %+v", seed, k, b, rep, full, fullRep)
				}
				break
			}
		}
	}
}

// TestApproxBudgets checks that exhausted budgets still return sound,
// possibly unconverged bounds, and that invalid inputs error.
func TestApproxBudgets(t *testing.T) {
	s := algebra.SemiringFor(algebra.Boolean)
	p := gen.Params{
		L: 20, R: 10, NumVars: 16, NumClauses: 2, NumLiterals: 2,
		MaxV: 100, AggL: algebra.Min, AggR: algebra.Count, Theta: value.LE, Seed: 3,
	}
	inst := gen.MustNew(p)
	exact, err := exactTruth(inst.Registry, inst.Expr)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]compile.ApproxOptions{
		"expansions": {Eps: 0.001, MaxLeafNodes: 16, MaxExpansions: 3},
		"nodes":      {Eps: 0.001, MaxLeafNodes: 16, MaxNodes: 200},
		"timeout":    {Eps: 0.001, MaxLeafNodes: 16, Timeout: time.Nanosecond},
	} {
		b, rep, err := compile.ApproximateCtx(context.Background(), s, inst.Registry, inst.Expr, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !b.Contains(exact, 1e-9) {
			t.Errorf("%s: exact %v outside budget-limited bounds %v", name, exact, b)
		}
		switch name {
		case "expansions":
			if rep.Expansions > opts.MaxExpansions {
				t.Errorf("%s: %d expansions exceed budget %d", name, rep.Expansions, opts.MaxExpansions)
			}
		case "timeout":
			// The first iteration may complete before the deadline check;
			// soundness is all that is guaranteed.
		}
	}
	if _, _, err := compile.ApproximateCtx(context.Background(), s, inst.Registry, inst.Expr, compile.ApproxOptions{Eps: -0.1}); err == nil {
		t.Error("negative epsilon accepted")
	}
	// ε = 0 is an exact request, which the exact strategy answers.
	if _, _, err := compile.ApproximateCtx(context.Background(), s, inst.Registry, inst.Expr, compile.ApproxOptions{}); err == nil {
		t.Error("zero epsilon accepted")
	}
	if _, _, err := compile.ApproximateCtx(context.Background(), s, inst.Registry, inst.Expr, compile.ApproxOptions{Eps: 1.5}); err == nil {
		t.Error("epsilon ≥ 1 accepted")
	}
	if _, _, err := compile.ApproximateCtx(context.Background(), s, inst.Registry, expr.MInt(3), compile.ApproxOptions{Eps: 0.1}); err == nil {
		t.Error("module expression accepted")
	}
}

// TestApproxNestedSplitFrontier is a regression test: after a Shannon
// expansion, classify can return or/and split nodes whose frontier leaves
// sit below the expansion's direct children, and those leaves must still
// enter the priority frontier. The expression is a product of two hard SUM
// comparisons sharing one variable, so expanding the shared variable
// yields exactly such a split in every branch.
func TestApproxNestedSplitFrontier(t *testing.T) {
	s := algebra.SemiringFor(algebra.Boolean)
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	build := func(names []string) expr.Expr {
		terms := []expr.Expr{expr.Scale(algebra.Sum, expr.V("x"), value.Int(3))}
		for _, n := range names {
			reg.DeclareBool(n, 0.5)
			terms = append(terms, expr.Scale(algebra.Sum, expr.V(n), value.Int(3)))
		}
		return expr.Compare(value.LE, expr.MSum(algebra.Sum, terms...), expr.MConst{V: value.Int(8)})
	}
	a := make([]string, 10)
	b := make([]string, 10)
	for i := range a {
		a[i] = fmt.Sprintf("a%d", i)
		b[i] = fmt.Sprintf("b%d", i)
	}
	e := expr.Product(build(a), build(b))
	exact, err := worlds.Enumerate(e, reg, s)
	if err != nil {
		t.Fatal(err)
	}
	bounds, rep, err := compile.ApproximateCtx(context.Background(), s, reg, e, compile.ApproxOptions{Eps: 0.01, MaxLeafNodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pt := exact.TruthProbability(); !bounds.Contains(pt, 1e-9) {
		t.Errorf("exact %v outside bounds %v", pt, bounds)
	}
	if !rep.Converged || bounds.Width() > 0.01 {
		t.Errorf("frontier under split nodes not refined: bounds %v, converged=%v, report %+v",
			bounds, rep.Converged, rep)
	}
}

// TestApproxNaturalSemiring checks the independent-sum and product
// interval rules on the Natural semiring against enumeration.
func TestApproxNaturalSemiring(t *testing.T) {
	s := algebra.SemiringFor(algebra.Natural)
	reg := gen.MustNew(gen.Params{
		L: 3, NumVars: 6, NumClauses: 2, NumLiterals: 2,
		MaxV: 5, AggL: algebra.Sum, Theta: value.LE, C: 4, Seed: 1,
	}).Registry
	// (v0·v1 + v2) — independent product and sum splits over Booleans
	// valued in ℕ.
	e := expr.Sum(expr.Product(expr.V("v0"), expr.V("v1")), expr.V("v2"))
	enum, err := worlds.Enumerate(e, reg, s)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := compile.ApproximateCtx(context.Background(), s, reg, e, compile.ApproxOptions{Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if pt := enum.TruthProbability(); !b.Contains(pt, 1e-9) {
		t.Errorf("enumerated %v outside bounds %v", pt, b)
	}
}

// TestApproxSumSplit: a sum of independent parts splits into an or-node
// of them only where no cancellation across the parts is possible. The
// Boolean a·b + c·d splits and its parts close exactly, with no
// expansion, at a leaf budget too small for the whole sum. The Natural
// x + y over x, y ∈ {−1, 1} is 0 when they differ, so it must not split
// (an or-node would claim truth probability 1); it reaches the exact ½
// by expanding. Both answers are held to possible-worlds enumeration.
func TestApproxSumSplit(t *testing.T) {
	boolReg := vars.NewRegistry()
	for _, x := range []string{"a", "b", "c", "d"} {
		boolReg.DeclareBool(x, 0.5)
	}
	signReg := vars.NewRegistry()
	for _, x := range []string{"x", "y"} {
		signReg.Declare(x, prob.FromPairs([]prob.Pair{{V: value.Int(-1), P: 0.5}, {V: value.Int(1), P: 0.5}}))
	}
	for _, tc := range []struct {
		name       string
		kind       algebra.SemiringKind
		reg        *vars.Registry
		e          expr.Expr
		want       float64
		expansions int
	}{
		{"Boolean a·b + c·d", algebra.Boolean, boolReg, expr.MustParse("a*b + c*d"), 0.4375, 0},
		{"Natural x + y", algebra.Natural, signReg, expr.MustParse("x + y"), 0.5, 3},
	} {
		s := algebra.SemiringFor(tc.kind)
		enum, err := worlds.Enumerate(tc.e, tc.reg, s)
		if err != nil {
			t.Fatal(err)
		}
		if pt := enum.TruthProbability(); pt != tc.want {
			t.Fatalf("%s: enumeration gives %v, want %v", tc.name, pt, tc.want)
		}
		b, rep, err := compile.ApproximateCtx(context.Background(), s, tc.reg, tc.e, compile.ApproxOptions{Eps: 0.01, MaxLeafNodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		if b.Lo != tc.want || b.Hi != tc.want || !rep.Converged || rep.Expansions != tc.expansions {
			t.Errorf("%s: bounds %v after %d expansions (converged %v), want the point %v after %d",
				tc.name, b, rep.Expansions, rep.Converged, tc.want, tc.expansions)
		}
	}
}

// TestApproxHardInstance is the acceptance criterion: on a generated hard
// (non-Qind/Qhie) instance whose exact compilation exceeds 10⁵ d-tree
// nodes, ε = 0.05 bounds are reached while expanding < 10% of the exact
// node count.
func TestApproxHardInstance(t *testing.T) {
	if testing.Short() || testutil.RaceEnabled {
		t.Skip("hard instance: ~15s of exact compilation (single-goroutine; race detector adds nothing)")
	}
	s := algebra.SemiringFor(algebra.Boolean)
	// A two-sided comparison [Σmin Φi⊗vi ≤ Σcount Ψj⊗1]: conditional
	// expressions of this shape fall outside the tractable plan classes
	// Qind/Qhie (they arise from selections on aggregates over non-
	// hierarchical joins). Skewed marginals make the Shannon branch masses
	// unequal — the regime anytime approximation exploits.
	p := gen.Params{
		L: 30, R: 15, NumVars: 22, NumClauses: 2, NumLiterals: 2,
		MaxV: 200, AggL: algebra.Min, AggR: algebra.Count, Theta: value.LE,
		VarProb: 0.95, Seed: 1,
	}
	inst := gen.MustNew(p)
	c := compile.New(s, inst.Registry, compile.Options{MaxNodes: 5_000_000})
	res, err := c.CompileCtx(context.Background(), inst.Expr)
	if err != nil {
		t.Fatalf("exact compile: %v", err)
	}
	exactNodes := res.Stats.Nodes
	if exactNodes <= 100_000 {
		t.Fatalf("exact compilation took %d nodes, want > 10⁵ (instance not hard enough)", exactNodes)
	}
	b, rep, err := compile.ApproximateCtx(context.Background(), s, inst.Registry, inst.Expr, compile.ApproxOptions{Eps: 0.05})
	if err != nil {
		t.Fatalf("approximate: %v", err)
	}
	if !rep.Converged || b.Width() > 0.05 {
		t.Errorf("width %v > 0.05 (converged=%v)", b.Width(), rep.Converged)
	}
	// The partial compilation actually materialised: partial-tree nodes
	// plus the d-tree nodes of the leaves closed exactly.
	expanded := rep.TreeNodes + rep.ExactNodes
	if 10*expanded >= exactNodes {
		t.Errorf("approximation expanded %d nodes, want < 10%% of exact %d", expanded, exactNodes)
	}
	// The total work — including the scratch nodes of failed closure
	// probes, which are compiled under a budget and discarded — must also
	// stay well under the exact cost, or the node win would be hollow.
	if 2*rep.TotalNodes() >= exactNodes {
		t.Errorf("approximation did %d total nodes of work (%d wasted), want < 50%% of exact %d",
			rep.TotalNodes(), rep.WastedNodes, exactNodes)
	}
	t.Logf("exact %d nodes; anytime expanded %d (%.1f%%), total work %d (%.1f%%), bounds %v",
		exactNodes, expanded, 100*float64(expanded)/float64(exactNodes),
		rep.TotalNodes(), 100*float64(rep.TotalNodes())/float64(exactNodes), b)
}
