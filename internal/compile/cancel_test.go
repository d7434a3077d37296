package compile_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/expr"
	"pvcagg/internal/gen"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// cancelInstance is a generated hard (non-Qind/Qhie) instance whose exact
// compilation takes hundreds of milliseconds at least (the same shape as
// TestApproxHardInstance's acceptance instance): long enough that a
// cancellation arriving a few milliseconds in is guaranteed to interrupt
// mid-compile on every path.
func cancelInstance(t *testing.T) gen.Instance {
	t.Helper()
	p := gen.Params{
		L: 30, R: 15, NumVars: 22, NumClauses: 2, NumLiterals: 2,
		MaxV: 200, AggL: algebra.Min, AggR: algebra.Count, Theta: value.LE,
		VarProb: 0.95, Seed: 1,
	}
	return gen.MustNew(p)
}

// assertCancels runs f with a context cancelled after a few milliseconds
// and asserts that f returns context.Canceled. Compilations poll ctx every
// 256 created nodes — microseconds of work — but how soon the goroutine is
// scheduled again under a loaded `go test ./...` is not this package's to
// promise, so the elapsed time is logged, not asserted; only a compilation
// that ignores the cancellation for seconds fails.
func assertCancels(t *testing.T, path string, f func(ctx context.Context) error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- f(ctx) }()
	// Let the compilation get going before pulling the plug; if it
	// finishes faster than the fuse the instance was not hard enough.
	fuse := 10 * time.Millisecond
	select {
	case err := <-errc:
		t.Fatalf("%s: compilation finished in under %v (err=%v); instance not hard enough to test cancellation", path, fuse, err)
	case <-time.After(fuse):
	}
	t0 := time.Now()
	cancel()
	select {
	case err := <-errc:
		t.Logf("%s: returned %v after cancel", path, time.Since(t0))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error = %v, want context.Canceled", path, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: compilation did not return within 5s of cancellation", path)
	}
}

// TestCancelSequentialCompile: a cancelled context aborts the exact
// compiler mid-Shannon-expansion.
func TestCancelSequentialCompile(t *testing.T) {
	inst := cancelInstance(t)
	s := algebra.SemiringFor(algebra.Boolean)
	assertCancels(t, "sequential", func(ctx context.Context) error {
		c := compile.New(s, inst.Registry, compile.Options{})
		_, err := c.CompileCtx(ctx, inst.Expr)
		return err
	})
}

// TestCancelApproximate: cancellation aborts the anytime frontier loop
// and its exact leaf closures. ε is far below what the instance can reach
// quickly, so the engine is guaranteed to still be expanding when the
// cancellation lands.
func TestCancelApproximate(t *testing.T) {
	inst := cancelInstance(t)
	s := algebra.SemiringFor(algebra.Boolean)
	assertCancels(t, "anytime", func(ctx context.Context) error {
		_, _, err := compile.ApproximateCtx(ctx, s, inst.Registry, inst.Expr, compile.ApproxOptions{Eps: 1e-9})
		return err
	})
}

// TestCancelShannonDescent: the annotation shape of a selection over a
// wide MAX aggregate — [MAX-sum over n variables ≤ c] · (x1 + … + xn) —
// sends the compiler down a Shannon descent that conditions one variable
// per level, does O(n) substitution work per level, and materialises its
// decision nodes only post-order. A cancellation poll keyed on created
// nodes alone never fires during that descent (minutes of work for tens
// of thousands of tuples), so the compiler also polls on recursion
// steps; this is the regression test for that descent-side poll.
func TestCancelShannonDescent(t *testing.T) {
	const n = 6000
	reg := vars.NewRegistry()
	aggTerms := make([]expr.Expr, n)
	presence := make([]expr.Expr, n)
	for i := range aggTerms {
		name := fmt.Sprintf("x%d", i)
		reg.DeclareBool(name, 0.5)
		aggTerms[i] = expr.Scale(algebra.Max, expr.V(name), value.Int(int64(i%97)))
		presence[i] = expr.V(name)
	}
	e := expr.Product(
		expr.Compare(value.LE, expr.MSum(algebra.Max, aggTerms...), expr.MConst{V: value.Int(50)}),
		expr.Sum(presence...),
	)
	s := algebra.SemiringFor(algebra.Boolean)
	assertCancels(t, "descent", func(ctx context.Context) error {
		_, err := compile.New(s, reg, compile.Options{}).CompileCtx(ctx, e)
		return err
	})
}

// TestCancelBeforeStart: an already-cancelled context aborts before any
// expansion work on both engines.
func TestCancelBeforeStart(t *testing.T) {
	inst := cancelInstance(t)
	s := algebra.SemiringFor(algebra.Boolean)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := compile.New(s, inst.Registry, compile.Options{}).CompileCtx(ctx, inst.Expr); !errors.Is(err, context.Canceled) {
		t.Errorf("sequential: error = %v, want context.Canceled", err)
	}
	if _, _, err := compile.ApproximateCtx(ctx, s, inst.Registry, inst.Expr, compile.ApproxOptions{Eps: 1e-9}); !errors.Is(err, context.Canceled) {
		t.Errorf("anytime: error = %v, want context.Canceled", err)
	}
}
