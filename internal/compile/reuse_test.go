package compile

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/worlds"
)

var factorSink bool

// TestTryFactorSumTestsBeforeBuilding: on a sum whose first term offers
// candidates but where no candidate factors — absent from a term, present
// twice in one, or present in a tensor's module side — tryFactorSum
// reports no factoring and allocates nothing.
func TestTryFactorSumTestsBeforeBuilding(t *testing.T) {
	names := []string{"x1", "x2", "x3", "x4"}
	for _, tc := range []struct {
		src    string
		module bool
		agg    algebra.Agg
	}{
		{"x1*x2 + x1*x3 + x2*x4", false, 0},
		{"x1*x2 + x1*x1*x3", false, 0},
		{"x1 + x2*x3", false, 0},
		{"sum(x1*x2 @sum 3, x1*x3 @sum 4, x2*x4 @sum 5)", true, algebra.Sum},
		{"min((x1*x2) @min (x1 @min 3), x1 @min 4)", true, algebra.Min},
		{"min((x1*x2) @min min(x1 @min 3, x3 @min 5), x1 @min 4)", true, algebra.Min},
	} {
		s := algebra.SemiringFor(algebra.Boolean)
		e := expr.Simplify(expr.MustParse(tc.src), s)
		var terms []expr.Expr
		switch n := e.(type) {
		case expr.Add:
			terms = n.Terms
		case expr.AggSum:
			terms = n.Terms
		default:
			t.Fatalf("%s simplifies to %s, not a sum", tc.src, expr.String(e))
		}
		c := New(s, boolReg(0.5, names...), Options{})
		c.sc = new(scratch)
		if _, ok, err := c.tryFactorSum(terms, tc.module, tc.agg); ok || err != nil {
			t.Fatalf("%s: tryFactorSum factored (%v, %v)", tc.src, ok, err)
		}
		if n := testing.AllocsPerRun(20, func() { _, factorSink, _ = c.tryFactorSum(terms, tc.module, tc.agg) }); n != 0 {
			t.Errorf("%s: tryFactorSum allocates %v times without factoring", tc.src, n)
		}
	}
}

// TestRebindSharesNothing compiles e₁, a §7.1 grid cell, and then e₂,
// the same monoid sum under another comparison, on one compiler — Reset
// between them, and rebound to another semiring, registry and options —
// and holds e₂'s d-tree and Stats to a fresh compiler's: a reused memo
// lends its capacity, never a node.
func TestRebindSharesNothing(t *testing.T) {
	var e1 expr.Expr
	for _, c := range goldenGridCells() {
		if c.name == "grid/SUM <= c=480 L=12" {
			e1 = c.e
		}
	}
	e2 := expr.Compare(value.GE, e1.(expr.Cmp).L, expr.MInt(200))
	names := make([]string, 9)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	boolS, natS := algebra.SemiringFor(algebra.Boolean), algebra.SemiringFor(algebra.Natural)
	for _, to := range []struct {
		s    algebra.Semiring
		opts Options
	}{{boolS, Options{}}, {natS, Options{}}, {boolS, Options{DisablePruning: true}}} {
		reg := boolReg(0.5, names...)
		want := mustCompile(t, New(to.s, reg, to.opts), e2)
		if want.Stats.CacheHits == 0 || want.Stats.Factorings == 0 {
			t.Fatalf("e₂ compiles with %d memo hits and %d factorings; the test needs both", want.Stats.CacheHits, want.Stats.Factorings)
		}
		c := New(boolS, boolReg(0.3, names...), Options{})
		mustCompile(t, c, e1)
		c.Reset()
		c.Rebind(to.s, reg, to.opts)
		got := mustCompile(t, c, e2)
		if got.Stats != want.Stats || dtreeDigest(got.Root) != dtreeDigest(want.Root) {
			t.Errorf("%v %+v: e₂ after e₁ compiles to %+v, a fresh compiler to %+v", to.s.Kind(), to.opts, got.Stats, want.Stats)
		}
	}
}

// TestGoldenTreesUnderRecyclePoison evaluates every d-tree of the golden
// set twice with recycled pair arrays poisoned (every probability of an
// array prob.Recycle takes overwritten with NaN): the second evaluation
// draws the arrays the first gave back, so a distribution read after it
// was recycled, or a kernel that left a recycled slot unwritten, shows as
// NaN or as a difference. The two must agree bit for bit and hold no NaN,
// and the §7.1 grid cells must equal possible-worlds enumeration.
func TestGoldenTreesUnderRecyclePoison(t *testing.T) {
	prob.PoisonRecycledForTest(t)
	for _, c := range goldenCases() {
		res := mustCompile(t, New(c.s, c.reg, c.opts), c.e)
		env := dtree.Env{Semiring: c.s, Registry: c.reg}
		var ds [2]prob.Dist
		for i := range ds {
			d, _, err := dtree.Evaluate(res.Root, env)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			ds[i] = d
		}
		first, second := ds[0].Pairs(), ds[1].Pairs()
		if len(first) != len(second) {
			t.Fatalf("%s: the two evaluations give %v and %v", c.name, ds[0], ds[1])
		}
		for i := range first {
			if math.IsNaN(first[i].P) || first[i].V != second[i].V || math.Float64bits(first[i].P) != math.Float64bits(second[i].P) {
				t.Fatalf("%s: the two evaluations give %v and %v", c.name, ds[0], ds[1])
			}
		}
		if !strings.HasPrefix(c.name, "grid/") {
			continue
		}
		want, err := worlds.Enumerate(c.e, c.reg, c.s)
		if err != nil {
			t.Fatal(err)
		}
		if !ds[0].Equal(want, 1e-12) {
			t.Errorf("%s: %v, enumeration gives %v", c.name, ds[0], want)
		}
	}
}

// compileCtxSink keeps the compilations of the benchmark below alive.
var compileCtxSink Result

// BenchmarkCompileReset compiles one §7.1 grid cell on a fresh compiler
// and on one that is Reset between compilations: the second allocates
// its memo once.
func BenchmarkCompileReset(b *testing.B) {
	var cell goldenCase
	for _, c := range goldenGridCells() {
		if c.name == "grid/SUM <= c=480 L=12" {
			cell = c
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			compileCtxSink, _ = New(cell.s, cell.reg, cell.opts).CompileCtx(context.Background(), cell.e)
		}
	})
	b.Run("reset", func(b *testing.B) {
		b.ReportAllocs()
		c := New(cell.s, cell.reg, cell.opts)
		for range b.N {
			compileCtxSink, _ = c.CompileCtx(context.Background(), cell.e)
			c.Reset()
		}
	})
}

// TestTreeHeldAcrossResetFails: Reset invalidates the trees compiled
// since the last Reset. With its nodes poisoned, a golden tree evaluated
// after its compiler's Reset fails, naming the cause, instead of reading
// whatever the next compilation carves from the same slabs.
func TestTreeHeldAcrossResetFails(t *testing.T) {
	PoisonResetForTest(t)
	c := New(nil, nil, Options{})
	for _, gc := range goldenCases() {
		c.Rebind(gc.s, gc.reg, gc.opts)
		res := mustCompile(t, c, gc.e)
		if _, ok := res.Root.(*dtree.ConstLeaf); ok {
			continue // a constant has nothing to poison
		}
		c.Reset()
		_, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: gc.s, Registry: gc.reg})
		if err == nil || !strings.Contains(err.Error(), "after its compiler's Reset") {
			t.Fatalf("%s: evaluating the tree after Reset gives %v", gc.name, err)
		}
	}
}

// TestApproximatePooledEqualsFresh: an anytime run on a compiler of the
// pool — back to back with the run before it, and after an exact
// compilation on the same pool — gives the same bounds and ApproxReport,
// ExactNodes and WastedNodes included, as a run on a new compiler. Every
// fourth semiring case of the golden set, with a tiny MaxLeafNodes, so
// that the runs expand, resume and waste nodes.
func TestApproximatePooledEqualsFresh(t *testing.T) {
	ctx := context.Background()
	opts := ApproxOptions{Eps: 0.05, MaxLeafNodes: 8}
	cases := goldenCases()
	runs, wasted := 0, 0
	for i, gc := range cases {
		if i%4 != 0 || gc.e.Kind() != expr.KindSemiring {
			continue
		}
		b, rep, err := approximate(ctx, New(gc.s, gc.reg, Options{}), gc.e, opts)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		runs, wasted = runs+1, wasted+rep.WastedNodes
		for j := range 3 {
			if j == 2 {
				// An exact compilation of the next case in between.
				next := cases[(i+1)%len(cases)]
				c := Get(next.s, next.reg, next.opts)
				res := mustCompile(t, c, next.e)
				if _, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: next.s, Registry: next.reg}); err != nil {
					t.Fatal(err)
				}
				Put(c)
			}
			pb, prep, err := ApproximateCtx(ctx, gc.s, gc.reg, gc.e, opts)
			if err != nil {
				t.Fatalf("%s: %v", gc.name, err)
			}
			if pb != b || prep != rep {
				t.Fatalf("%s: pooled run %d gives %v %+v, a new compiler %v %+v", gc.name, j, pb, prep, b, rep)
			}
		}
	}
	if runs < 20 || wasted == 0 {
		t.Fatalf("%d runs wasting %d nodes: the test needs more, and waste", runs, wasted)
	}
}
