package engine

import (
	"context"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/expr"
	"pvcagg/internal/vars"
)

// TestReusedCompilerSharesNothing: a worker compiles e₁ and then e₂,
// which shares e₁'s monoid sum, on its one compiler; and after the worker
// gives the compiler back, the worker of another query — over another
// semiring and registry — compiles e₂ on whatever compilers hands it. Each
// time e₂'s counts (nodes, memo hits, factorings and the rest) equal a
// fresh compiler's.
func TestReusedCompilerSharesNothing(t *testing.T) {
	sum := "sum(x1*x2 @sum 3, x1*x3 @sum 4, x1*x4*x5 @sum 5, x2*x3 @sum 2, x4*x5*x6 @sum 1, x5*x6 @sum 6)"
	e1 := expr.MustParse("[" + sum + " <= 6]")
	e2 := expr.MustParse("[" + sum + " >= 4]*(x1*x2 + x1*x5)")
	reg := func(p float64) *vars.Registry {
		r := vars.NewRegistry()
		for _, x := range []string{"x1", "x2", "x3", "x4", "x5", "x6"} {
			r.DeclareBool(x, p)
		}
		return r
	}
	ctx := context.Background()
	natural := algebra.SemiringFor(algebra.Natural)
	fresh := func(s algebra.Semiring, reg *vars.Registry) compile.Stats {
		res, err := compile.New(s, reg, compile.Options{}).CompileCtx(ctx, e2)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	exact := func(w *worker, e expr.Expr) compile.Stats {
		_, rep, err := w.exact(ctx, e, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Compile
	}

	want := fresh(boolean, reg(0.5))
	if want.CacheHits == 0 || want.Factorings == 0 {
		t.Fatalf("e₂ compiles with %d memo hits and %d factorings; the test needs both", want.CacheHits, want.Factorings)
	}
	w := newWorker(boolean, reg(0.5), &ExecConfig{})
	exact(w, e1)
	if got := exact(w, e2); got != want {
		t.Errorf("e₂ after e₁ on one worker: %+v, a fresh compiler: %+v", got, want)
	}
	w.release()

	r := reg(0.25)
	want = fresh(natural, r)
	next := newWorker(natural, r, &ExecConfig{})
	defer next.release()
	if got := exact(next, e2); got != want {
		t.Errorf("e₂ on a released compiler: %+v, a fresh compiler: %+v", got, want)
	}
}
