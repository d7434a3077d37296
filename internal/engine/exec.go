package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
	"pvcagg/internal/vars"
	"pvcagg/internal/worlds"
)

// This file is step II behind the facade's Exec and ExecExpr:
// one strategy dispatch (exact, anytime, sampling; worker.interpret) and
// one worker pool (Outcomes) that computes the TupleOutcomes of a result
// pvc-table in tuple order. The whole computation honours a context —
// cancellation reaches into the per-tuple compilations, which poll ctx at
// expansion steps.

// ExecConfig selects and parameterises one execution strategy. The zero
// value is the exact strategy at GOMAXPROCS parallelism.
type ExecConfig struct {
	// Compile configures exact compilation: the annotation under the
	// exact strategy and Auto, and the aggregation columns under all.
	Compile compile.Options
	// Parallelism bounds the number of worker goroutines across result
	// tuples (<= 0 ⇒ GOMAXPROCS); each tuple compiles on one goroutine.
	Parallelism int
	// Approx, when non-nil, selects the anytime strategy: annotation
	// confidences are bracketed within Approx.Eps instead of computed
	// exactly.
	Approx *compile.ApproxOptions
	// Auto makes Approx a per-tuple fallback: a semiring annotation
	// compiles exactly under Compile.MaxNodes, or NodeBound of its Weight
	// if that is 0, and only one that exceeds it runs under Approx.
	Auto bool
	// Samples, when > 0, selects the Monte Carlo strategy: annotation
	// confidences are estimated from this many sampled worlds with a 95%
	// Hoeffding interval. Sampling requires an explicit Seed — there is
	// no ambient randomness anywhere in the engine.
	Samples int
	// Seed drives the sampling strategy; tuple i draws from a stream
	// derived as Seed + i·stride, so results are reproducible from the
	// single logged seed at any parallelism.
	Seed int64
}

// worker computes outcomes for one goroutine of the pool and runs step
// II's one strategy dispatch, interpret. Tuples share nothing beyond the
// read-only registry.
type worker struct {
	s   algebra.Semiring
	reg *vars.Registry
	cfg *ExecConfig
	// c compiles every exact expression of the worker — annotations and
	// columns, tuple after tuple — and is Reset after each tree has been
	// evaluated, so no two compilations share a node. It is taken from
	// compile's pool on first use and given back by release; a reuse
	// shares the memo's and the node slabs' capacity and the compiler's
	// scratch, never a memo entry or a live d-tree node.
	c *compile.Compiler
	// The sampling strategy's scratch and generator, reused from tuple to
	// tuple (rng is re-seeded for every tuple); nil under the others.
	sampler *worlds.Sampler
	rng     *rand.Rand
}

func newWorker(s algebra.Semiring, reg *vars.Registry, cfg *ExecConfig) *worker {
	w := &worker{s: s, reg: reg, cfg: cfg}
	if cfg.Samples > 0 {
		w.sampler, w.rng = new(worlds.Sampler), rand.New(rand.NewSource(0))
	}
	return w
}

// release gives the worker's compiler back to compile's pool; the
// worker's owner calls it when the worker is done.
func (w *worker) release() {
	if w.c != nil {
		compile.Put(w.c)
		w.c = nil
	}
}

// ExactReport describes one exact computation, or the sum of several:
// the compiler's statistics and the evaluation's. These are the
// quantities the paper's experiments report: the d-tree's size is
// Compile.Nodes and its exclusive (Shannon) nodes Compile.Shannon, the
// largest distribution Eval.MaxDistSize.
type ExactReport struct {
	Compile compile.Stats
	Eval    dtree.EvalStats
}

// NodeBound is Section 6's bound on the d-tree of a tractable query's
// tuple of annotation weight v: the decided-guard chain (compile/prune.go,
// rule (b)) spends one ⊔ per variable and hangs a comparison under it.
func NodeBound(v int) int { return v*v + 6*v + 8 }

// varSets lends Weight a scratch already grown to the largest variable ID.
var varSets = sync.Pool{New: func() any { return new(expr.VarSet) }}

// Weight is NodeBound's v: the sum over e's distinct variables of their
// support size less one (over B, the variable count).
func Weight(e expr.Expr, reg *vars.Registry) int {
	vs := varSets.Get().(*expr.VarSet)
	defer varSets.Put(vs)
	vs.Reset()
	expr.CollectVarsInto(e, vs)
	v := 0
	for _, id := range vs.Touched() {
		if d, err := reg.DistByID(id); err == nil {
			v += d.Size() - 1
		}
	}
	return v
}

// exact is the exact path: it compiles e (Algorithm 1) within maxNodes
// (0: no limit), evaluates the d-tree bottom-up (Theorem 2), and then
// Resets the compiler, which invalidates the tree.
func (w *worker) exact(ctx context.Context, e expr.Expr, maxNodes int) (prob.Dist, ExactReport, error) {
	var rep ExactReport
	c := w.c
	if c == nil {
		c = compile.Get(w.s, w.reg, w.cfg.Compile)
	}
	w.c = nil // until the tree is evaluated: a panic drops c, half-filled memo and all
	c.SetMaxNodes(maxNodes)
	res, err := c.CompileCtx(ctx, e)
	if err != nil {
		c.Reset()
		w.c = c
		return prob.Dist{}, rep, fmt.Errorf("engine: compile %s: %w", expr.Abbrev(e), err)
	}
	rep.Compile = res.Stats
	d, evalStats, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: w.s, Registry: w.reg})
	c.Reset()
	w.c = c
	if err != nil {
		return prob.Dist{}, rep, fmt.Errorf("engine: evaluate %s: %w", expr.Abbrev(e), err)
	}
	rep.Eval = evalStats
	return d, rep, nil
}

// Interpret computes the probabilistic interpretation of one bare
// expression under cfg by the dispatch every tuple's annotation goes
// through, as tuple 0 (so a sampled expression draws from the stream
// seeded cfg.Seed itself, and a panic is tuple 0's *PanicError). See
// interpret for what it returns.
func Interpret(ctx context.Context, s algebra.Semiring, reg *vars.Registry, e expr.Expr, cfg ExecConfig) (b compile.Bounds, d prob.Dist, rep TupleReport, err error) {
	defer contain(0, &err)
	w := newWorker(s, reg, &cfg)
	defer w.release()
	return w.interpret(ctx, 0, e)
}

// interpret is step II's strategy dispatch. It returns e's confidence
// (zero for a semimodule expression, which has no truth value), its
// distribution and the report of the strategy that ran (all meaningless
// alongside an error):
//   - exact: the exact path's distribution, and a point confidence;
//   - anytime: guaranteed bounds from compile.ApproximateCtx; no
//     distribution;
//   - auto: exact within ExecConfig.Auto's node budget, else anytime;
//   - sample: Samples worlds drawn from the stream seeded
//     Seed + idx·stride, and a 95% Hoeffding interval (statistical,
//     unlike the anytime engine's guaranteed bounds).
func (w *worker) interpret(ctx context.Context, idx int, e expr.Expr) (b compile.Bounds, d prob.Dist, rep TupleReport, err error) {
	switch {
	case w.cfg.Auto && e.Kind() == expr.KindSemiring:
		budget := w.cfg.Compile.MaxNodes
		if budget == 0 {
			budget = NodeBound(Weight(e, w.reg))
		}
		if d, rep.Exact, err = w.exact(ctx, e, budget); !errors.Is(err, compile.ErrNodeBudget) {
			break
		}
		fallthrough
	case w.cfg.Approx != nil && !w.cfg.Auto:
		var arep compile.ApproxReport
		b, arep, err = compile.ApproximateCtx(ctx, w.s, w.reg, e, *w.cfg.Approx)
		return b, d, TupleReport{Approx: &arep}, err
	case w.cfg.Samples > 0:
		// Seed leaves rng in the state rand.New(rand.NewSource(seed)) starts
		// in, without allocating a 4.9 KB source per tuple.
		w.rng.Seed(int64(uint64(w.cfg.Seed) + uint64(idx)*tupleSeedStride))
		d, err = w.sampler.Sample(ctx, e, w.reg, w.s, w.cfg.Samples, w.rng)
		rep.Samples = w.cfg.Samples
	default:
		d, rep.Exact, err = w.exact(ctx, e, w.cfg.Compile.MaxNodes)
	}
	if err != nil || e.Kind() != expr.KindSemiring {
		return b, d, rep, err
	}
	if w.cfg.Samples > 0 {
		b.Lo, b.Hi = worlds.Hoeffding95(d.TruthProbability(), w.cfg.Samples)
	} else {
		b = compile.Point(d.TruthProbability())
	}
	return b, d, rep, nil
}

// outcome computes the full probabilistic interpretation of one result
// tuple: its annotation through interpret, its aggregation columns
// exactly. Errors identify the tuple.
func (w *worker) outcome(ctx context.Context, idx int, t pvc.Tuple, moduleCols []int) (TupleOutcome, error) {
	if t.Ann.Kind() != expr.KindSemiring {
		return TupleOutcome{}, fmt.Errorf("engine: annotation of tuple %s is not a semiring expression", t.Label())
	}
	conf, _, rep, err := w.interpret(ctx, idx, t.Ann)
	if err != nil {
		return TupleOutcome{}, fmt.Errorf("engine: annotation of tuple %s: %w", t.Label(), err)
	}
	out := TupleOutcome{Index: idx, Tuple: t, Confidence: conf, Report: rep}
	for _, ci := range moduleCols {
		e, err := t.Cells[ci].ModuleExpr()
		if err != nil {
			return TupleOutcome{}, err
		}
		d, rep, err := w.exact(ctx, e, w.cfg.Compile.MaxNodes)
		if err != nil {
			return TupleOutcome{}, fmt.Errorf("engine: aggregation column %d of tuple %s: %w", ci, t.Label(), err)
		}
		out.AggDists = append(out.AggDists, d)
		out.Report.Exact.add(rep)
	}
	return out, nil
}

// PanicError is a panic recovered in step II, converted to a typed
// per-tuple error: the panicking tuple fails, the other tuples of the
// batch are unaffected, and the process survives. A bare expression
// (Interpret) and a joint (Joint, Average) are tuple 0.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: panic computing tuple %d: %v", e.Index, e.Value)
}

// IsPanic reports whether err is (or wraps) a contained worker panic.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// contain is step II's one panic containment, deferred by every entry
// point into it: a panic of the computation of tuple idx becomes its
// *PanicError in err.
func contain(idx int, err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Index: idx, Value: r, Stack: debug.Stack()}
	}
}

// safeOutcome is outcome with panic containment.
func (w *worker) safeOutcome(ctx context.Context, idx int, t pvc.Tuple, moduleCols []int) (out TupleOutcome, err error) {
	defer contain(idx, &err)
	return w.outcome(ctx, idx, t, moduleCols)
}

// workers is the pool size of the probability step for a batch of n
// tuples: every result tuple's semimodule expressions compile and evaluate
// independently (they only share the read-only registry), so the tuples
// fan out to min(par, n) goroutines, each tuple compiling on one.
// par <= 0 selects runtime.GOMAXPROCS(0); par == 1 is the sequential path.
func workers(par, n int) int {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return min(par, n)
}

// Outcomes computes the outcome of every tuple of rel over a bounded
// worker pool: each worker claims the next unclaimed tuple and computes
// its outcome (a panic becomes that tuple's *PanicError) until no tuple is
// left or ctx is done. It returns the outcomes that finished, in tuple
// order, alongside an error: ctx.Err() when the context was cancelled —
// which also aborts the in-flight compilations — and otherwise every
// tuple failure, joined into one error in tuple order.
func Outcomes(ctx context.Context, db *pvc.Database, rel *pvc.Relation, cfg ExecConfig) ([]TupleOutcome, error) {
	n := len(rel.Tuples)
	if n == 0 {
		return []TupleOutcome{}, nil
	}
	moduleCols := rel.Schema.ModuleColumns()
	outs := make([]TupleOutcome, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers(cfg.Parallelism, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := newWorker(db.Semiring(), db.Registry, &cfg)
			defer wk.release()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				outs[i], errs[i] = wk.safeOutcome(ctx, i, rel.Tuples[i], moduleCols)
			}
		}()
	}
	wg.Wait()
	// Tuples are claimed in index order and a claimed tuple is always
	// computed, so those below the last claim are exactly the ones that ran.
	ran := min(int(next.Load()), n)
	finished := outs[:0]
	var failed []error
	for i, o := range outs[:ran] {
		if errs[i] != nil {
			failed = append(failed, errs[i])
		} else {
			finished = append(finished, o)
		}
	}
	if err := ctx.Err(); err != nil {
		return finished, err
	}
	if len(failed) > 0 {
		return finished, fmt.Errorf("engine: %d of %d tuples failed: %w", len(failed), n, errors.Join(failed...))
	}
	return finished, nil
}
