package pvcagg_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"pvcagg"
	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/dtree"
	"pvcagg/internal/gen"
	"pvcagg/internal/testutil"
)

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRepeatedExprReusesCompilerMemo: ExecExpr compiles on a pooled
// compiler, so a repeated ExecExpr of one §7.1 expression allocates less
// than its first run, which finds no compiler in the pool. What it saves
// is held to the memo's growth — the bytes a fresh compiler allocates
// beyond a Reset one on the same expression, some 35 KB. The two are
// nearly equal by construction (the first run also misses a few engine
// buffers, some 0.5 KB), so the test asks for half the growth: a run
// that reused no memo would save none of it.
//
// Every sync.Pool is emptied by a GC, and what the pools hold decides
// each of these byte counts, so the collector is held off for the whole
// test: only its own two runtime.GC calls run.
func TestRepeatedExprReusesCompilerMemo(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := paperBase()
	p.Seed = 1
	inst := gen.MustNew(p)
	ctx := context.Background()
	s := algebra.SemiringFor(algebra.Boolean)

	reused := compile.New(s, inst.Registry, compile.Options{})
	compileOn := func(c *compile.Compiler) {
		if _, err := c.CompileCtx(ctx, inst.Expr); err != nil {
			t.Fatal(err)
		}
		c.Reset()
	}
	// reused has compiled inst.Expr once and been Reset, as the pooled
	// compiler of the second run below has when it compiles again.
	compileOn(reused)
	fresh := allocatedBy(func() { compileOn(compile.New(s, inst.Registry, compile.Options{})) })
	again := allocatedBy(func() { compileOn(reused) })
	if again >= fresh {
		t.Fatalf("a Reset compiler allocated %d bytes, a fresh one %d: the memo is not reused", again, fresh)
	}
	growth := fresh - again

	run := func() {
		if _, err := pvcagg.ExecExpr(ctx, inst.Expr, inst.Registry, pvcagg.Boolean, pvcagg.WithMode(pvcagg.Exact)); err != nil {
			t.Fatal(err)
		}
	}
	// Two GCs empty every pool; one compilation and evaluation outside the
	// engine then refills all but the engine's compilers, so that the
	// first run differs from the second only in the compiler it gets and
	// in the engine's own buffers.
	runtime.GC()
	runtime.GC()
	res, err := compile.New(s, inst.Registry, compile.Options{}).CompileCtx(ctx, inst.Expr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: inst.Registry}); err != nil {
		t.Fatal(err)
	}
	first := allocatedBy(run)
	second := allocatedBy(run)
	if saved := int64(first) - int64(second); saved < int64(growth/2) {
		t.Errorf("ExecExpr allocated %d bytes, then %d: the repeat saves %d, less than half the memo's growth of %d",
			first, second, saved, growth)
	}
	t.Logf("first run %d bytes, second %d, memo growth %d", first, second, growth)
}
