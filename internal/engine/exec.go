package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"pvcagg/internal/compile"
	"pvcagg/internal/core"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/worlds"
)

// This file implements the unified probability step behind the facade's
// Exec API: one worker pool computes TupleOutcomes under any strategy
// (exact, anytime, sampling), either as an ordered batch (Outcomes) or as
// a stream that surfaces tuples in completion order (Stream), and the
// whole computation honours a context — cancellation reaches into the
// per-tuple compilations, which poll ctx at expansion steps.

// ExecConfig selects and parameterises one execution strategy. The zero
// value is the exact strategy at GOMAXPROCS parallelism.
type ExecConfig struct {
	// Compile configures exact compilation: the annotation under the
	// exact strategy and the aggregation columns under every strategy.
	Compile compile.Options
	// Parallelism bounds the number of worker goroutines across result
	// tuples (<= 0 ⇒ GOMAXPROCS); each tuple compiles on one goroutine.
	Parallelism int
	// Approx, when non-nil, selects the anytime strategy: annotation
	// confidences are bracketed within Approx.Eps instead of computed
	// exactly.
	Approx *compile.ApproxOptions
	// Samples, when > 0, selects the Monte Carlo strategy: annotation
	// confidences are estimated from this many sampled worlds with a 95%
	// Hoeffding interval. Sampling requires an explicit Seed — there is
	// no ambient randomness anywhere in the engine.
	Samples int
	// Seed drives the sampling strategy; tuple i draws from a stream
	// derived as Seed + i·stride, so results are reproducible from the
	// single logged seed at any parallelism.
	Seed int64
	// OnBounds, when non-nil, observes each tuple's confidence bounds:
	// under the anytime strategy after every frontier expansion (via
	// Approx.OnBounds), under the exact and sampling strategies once per
	// tuple with the final interval. With Parallelism > 1 it is invoked
	// concurrently and must be safe for concurrent use.
	OnBounds func(compile.Bounds)
}

// worker computes outcomes for one goroutine of the pool: it owns a
// pipeline (core.Pipeline is not safe for concurrent use) and the
// per-tuple strategy dispatch. Tuples share nothing beyond the read-only
// registry.
type worker struct {
	pl  *core.Pipeline
	cfg *ExecConfig
	// The sampling strategy's scratch and generator, reused from tuple to
	// tuple (rng is re-seeded for every tuple); nil under the others.
	sampler *worlds.Sampler
	rng     *rand.Rand
}

func newWorker(db *pvc.Database, cfg *ExecConfig) *worker {
	w := &worker{
		pl:  &core.Pipeline{Semiring: db.Semiring(), Registry: db.Registry, Options: cfg.Compile},
		cfg: cfg,
	}
	if cfg.Samples > 0 {
		w.sampler, w.rng = new(worlds.Sampler), rand.New(rand.NewSource(0))
	}
	return w
}

// outcome computes the full probabilistic interpretation of one result
// tuple under the configured strategy. Errors identify the tuple.
func (w *worker) outcome(ctx context.Context, idx int, t pvc.Tuple, moduleCols []int) (TupleOutcome, error) {
	if t.Ann.Kind() != expr.KindSemiring {
		return TupleOutcome{}, fmt.Errorf("engine: annotation of tuple %s is not a semiring expression", t.Label())
	}
	out := TupleOutcome{Index: idx, Tuple: t}
	switch {
	case w.cfg.Approx != nil:
		b, rep, err := w.pl.TruthProbabilityApproxCtx(ctx, t.Ann, *w.cfg.Approx)
		if err != nil {
			return TupleOutcome{}, fmt.Errorf("engine: annotation of tuple %s: %w", t.Label(), err)
		}
		out.Confidence = b
		out.Report.Approx = &rep
	case w.cfg.Samples > 0:
		b, err := w.sampleConfidence(ctx, idx, t.Ann)
		if err != nil {
			return TupleOutcome{}, fmt.Errorf("engine: annotation of tuple %s: %w", t.Label(), err)
		}
		out.Confidence = b
		out.Report.Samples = w.cfg.Samples
	default:
		d, rep, err := w.pl.DistributionCtx(ctx, t.Ann)
		if err != nil {
			return TupleOutcome{}, fmt.Errorf("engine: annotation of tuple %s: %w", t.Label(), err)
		}
		out.Confidence = compile.Point(d.TruthProbability())
		out.Report.Exact = rep
	}
	// Anytime observation happens per expansion through Approx.OnBounds;
	// the other strategies report each tuple's final interval once, so
	// the callback is never silently dead under any strategy.
	if w.cfg.OnBounds != nil && w.cfg.Approx == nil {
		w.cfg.OnBounds(out.Confidence)
	}
	for _, ci := range moduleCols {
		e, err := t.Cells[ci].ModuleExpr()
		if err != nil {
			return TupleOutcome{}, err
		}
		d, rep, err := w.pl.DistributionCtx(ctx, e)
		if err != nil {
			return TupleOutcome{}, fmt.Errorf("engine: aggregation column %d of tuple %s: %w", ci, t.Label(), err)
		}
		out.AggDists = append(out.AggDists, d)
		out.Report.addAggregate(rep)
	}
	return out, nil
}

// PanicError is a panic recovered in a worker-pool goroutine, converted
// to a typed per-tuple error: the panicking tuple fails, the other
// tuples of the batch are unaffected, and the process survives.
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

// safeOutcome is outcome with panic containment.
func (w *worker) safeOutcome(ctx context.Context, idx int, t pvc.Tuple, moduleCols []int) (out TupleOutcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = TupleOutcome{}
			err = &PanicError{Index: idx, Value: r, Stack: debug.Stack()}
		}
	}()
	return w.outcome(ctx, idx, t, moduleCols)
}

// sampleConfidence estimates the annotation's truth probability from
// Samples explicitly-seeded worlds, returning a 95% Hoeffding interval
// (statistical, unlike the anytime engine's guaranteed bounds).
func (w *worker) sampleConfidence(ctx context.Context, idx int, ann expr.Expr) (compile.Bounds, error) {
	// Seed leaves rng in the state rand.New(rand.NewSource(seed)) starts
	// in, without allocating a 4.9 KB source per tuple.
	w.rng.Seed(int64(uint64(w.cfg.Seed) + uint64(idx)*tupleSeedStride))
	d, err := w.sampler.Sample(ctx, ann, w.pl.Registry, w.pl.Semiring, w.cfg.Samples, w.rng)
	if err != nil {
		return compile.Bounds{}, err
	}
	lo, hi := worlds.Hoeffding95(d.TruthProbability(), w.cfg.Samples)
	return compile.Bounds{Lo: lo, Hi: hi}, nil
}

// Outcomes computes the outcome of every tuple of rel in tuple order,
// distributing tuples over a bounded worker pool. Every failing tuple is
// reported, joined into one error;
// a cancelled context aborts the in-flight compilations and returns
// ctx.Err().
func Outcomes(ctx context.Context, db *pvc.Database, rel *pvc.Relation, cfg ExecConfig) ([]TupleOutcome, error) {
	n := len(rel.Tuples)
	if n == 0 {
		return []TupleOutcome{}, nil
	}
	moduleCols := rel.Schema.ModuleColumns()
	out := make([]TupleOutcome, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers(cfg.Parallelism, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := newWorker(db, &cfg)
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = wk.safeOutcome(ctx, i, rel.Tuples[i], moduleCols)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("engine: %d of %d tuples failed: %w", len(failed), n, errors.Join(failed...))
	}
	return out, nil
}

// Stream computes the outcome of every tuple of rel and yields each as
// soon as its worker finishes — completion order, not tuple order — so
// large workloads surface answers without a barrier. Per-tuple failures
// are yielded as (zero outcome, error) and the stream continues; breaking
// out of the iteration cancels the remaining work. When the context is
// cancelled before every tuple has been yielded, one final (zero outcome,
// ctx.Err()) is yielded.
func Stream(ctx context.Context, db *pvc.Database, rel *pvc.Relation, cfg ExecConfig) iter.Seq2[TupleOutcome, error] {
	return func(yield func(TupleOutcome, error) bool) {
		n := len(rel.Tuples)
		if n == 0 {
			return
		}
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		pool := workers(cfg.Parallelism, n)
		moduleCols := rel.Schema.ModuleColumns()
		type item struct {
			out TupleOutcome
			err error
		}
		ch := make(chan item, pool)
		var next atomic.Int64
		var wg sync.WaitGroup
		for range pool {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wk := newWorker(db, &cfg)
				for {
					if sctx.Err() != nil {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					out, err := wk.safeOutcome(sctx, i, rel.Tuples[i], moduleCols)
					select {
					case ch <- item{out, err}:
					case <-sctx.Done():
						return
					}
				}
			}()
		}
		go func() {
			wg.Wait()
			close(ch)
		}()
		yielded := 0
		for it := range ch {
			if !yield(it.out, it.err) {
				cancel()
				for range ch { // unblock remaining workers until close
				}
				return
			}
			yielded++
		}
		if yielded < n {
			if err := ctx.Err(); err != nil {
				yield(TupleOutcome{}, err)
			}
		}
	}
}
