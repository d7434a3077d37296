package pvcagg

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"time"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/core"
	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/obs"
	"pvcagg/internal/store"
	"pvcagg/internal/tractable"
	"pvcagg/internal/worlds"
)

// KindSemiring and KindModule name the two expression sorts of the
// paper's language (semiring annotations vs semimodule aggregation
// values), re-exported so callers can dispatch ExecExpr results.
const (
	KindSemiring = expr.KindSemiring
	KindModule   = expr.KindModule
)

// This file is the unified execution API: one context-aware entrypoint
// (Exec for plans, ExecTable for already-evaluated pvc-tables, ExecExpr
// for bare expressions) configured by functional options, with adaptive
// strategy selection (Auto mode routes through the Section 6 tractability
// analysis) and streaming results.

// Mode selects the execution strategy.
type Mode int

const (
	// Auto picks the strategy per query: Classify routes tractable plans
	// (Qind/Qhie) to the exact engine and hard plans to the anytime
	// engine at the configured ε (DefaultEps unless WithEps is given).
	// On an already-evaluated pvc-table there is no plan to analyse, so
	// Auto selects the anytime engine, whose exact leaf closures resolve
	// easy annotations to zero-width bounds anyway; on a bare expression
	// it probes exact compilation under a node budget and falls back to
	// the anytime engine if the budget is exceeded.
	Auto Mode = iota
	// Exact computes every confidence and distribution exactly by full
	// d-tree compilation (exponential on hard queries; bound it with
	// WithCompileBudget).
	Exact
	// Anytime brackets every confidence within ε by partial d-tree
	// expansion with guaranteed bounds; aggregation-column distributions
	// stay exact.
	Anytime
	// Sample estimates every confidence from explicitly-seeded Monte
	// Carlo worlds with a 95% Hoeffding interval. Unlike Anytime's, the
	// interval is statistical: it contains the exact confidence with
	// probability ≥ 95%, not always. Requires WithSeed.
	Sample
)

func (m Mode) String() string {
	switch m {
	case Auto:
		return "Auto"
	case Exact:
		return "Exact"
	case Anytime:
		return "Anytime"
	case Sample:
		return "Sample"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultEps is the anytime target bound width used by Auto and Anytime
// when WithEps is not given, so selecting the anytime engine never
// silently degenerates to exact compilation.
const DefaultEps = 0.01

// DefaultSamples is the Monte Carlo sample count used by Sample mode when
// WithSamples is not given.
const DefaultSamples = 10_000

// autoExprBudget is Auto's exact-compilation probe budget for bare
// expressions (ExecExpr) when no WithCompileBudget is given: expressions
// whose d-tree stays under it run exactly; larger ones fall back to the
// anytime engine.
const autoExprBudget = 1 << 18

// TupleOutcome is the unified per-tuple result: interval confidence
// (zero-width for exact strategies), exact aggregation-column
// distributions, and the per-tuple cost report.
type TupleOutcome = engine.TupleOutcome

// TupleReport is the per-tuple cost report across strategies.
type TupleReport = engine.TupleReport

// PanicError is a panic recovered inside an engine worker goroutine,
// converted to a typed per-tuple error; the other tuples of the batch
// are unaffected and the process survives.
type PanicError = engine.PanicError

// IsPanic reports whether err is (or wraps) a contained worker panic.
func IsPanic(err error) bool { return engine.IsPanic(err) }

// Option configures Exec, ExecTable and ExecExpr.
type Option func(*execConfig)

type execConfig struct {
	mode       Mode
	eps        float64
	epsSet     bool
	par        int
	budget     int
	approx     ApproxOptions
	approxSet  bool
	timeout    time.Duration
	timeoutSet bool
	onBounds   func(Bounds)
	seed       int64
	seedSet    bool
	samples    int
	samplesSet bool
	store      *Store
	retry      RetryPolicy
	retrySet   bool
	trace      *obs.Trace
	analyze    bool
}

// resolveDB reconciles the database argument with WithStore: a nil db
// resolves to the store's database, the store's own DB() passes through,
// and any other non-nil db is a contradiction.
func (c *execConfig) resolveDB(db *Database) (*Database, error) {
	if c.store == nil {
		return db, nil
	}
	if db == nil || db == c.store.db {
		return c.store.db, nil
	}
	return nil, errors.New("pvcagg: WithStore conflicts with a different non-nil database; pass nil (or the store's DB()) to run against the store")
}

// WithMode selects the execution strategy (default Auto).
func WithMode(m Mode) Option { return func(c *execConfig) { c.mode = m } }

// WithEps sets the anytime target bound width: every tuple's confidence
// interval converges to width ≤ ε, budgets permitting. Only meaningful
// with Auto and Anytime.
func WithEps(eps float64) Option {
	return func(c *execConfig) { c.eps, c.epsSet = eps, true }
}

// WithParallelism bounds the number of worker goroutines across result
// tuples. A single tuple — and so a bare ExecExpr — always compiles on
// one goroutine. n <= 0 selects runtime.GOMAXPROCS(0) (the default);
// n == 1 runs sequentially. Results are identical at every n.
func WithParallelism(n int) Option { return func(c *execConfig) { c.par = n } }

// WithCompileBudget aborts any exact compilation whose d-tree exceeds
// maxNodes, turning runaway Shannon expansions into errors (under Exact)
// or anytime fallbacks (under Auto on expressions). It bounds every full
// exact compilation: annotations under Exact and under Anytime at ε = 0,
// and aggregation columns under every strategy.
func WithCompileBudget(maxNodes int) Option {
	return func(c *execConfig) { c.budget = maxNodes }
}

// WithApprox sets the anytime engine's budgets: MaxLeafNodes,
// MaxExpansions, MaxNodes and the per-tuple Timeout. Budgets only: the
// target width is WithEps, the compile budget WithCompileBudget and the
// bounds callback WithOnBounds, and setting ApproxOptions.Eps, Compile or
// OnBounds here is an error naming the option to use instead.
func WithApprox(o ApproxOptions) Option {
	return func(c *execConfig) { c.approx, c.approxSet = o, true }
}

// WithTimeout cancels the whole execution — plan evaluation and every
// in-flight compilation — after d, as if the caller's context had been
// cancelled. (ApproxOptions.Timeout, by contrast, is a per-tuple anytime
// budget that returns sound unconverged bounds.)
func WithTimeout(d time.Duration) Option {
	return func(c *execConfig) { c.timeout, c.timeoutSet = d, true }
}

// WithOnBounds observes per-tuple confidence bounds as they are computed:
// under the anytime engine after every frontier expansion (a
// monotonically tightening sequence per tuple), under the exact and
// sampling strategies once per tuple with the final interval — so the
// callback reports progress under every strategy, including the exact
// route of an Auto run. With Parallelism > 1 the callback is invoked
// concurrently from multiple tuples and must be safe for concurrent use.
func WithOnBounds(cb func(Bounds)) Option {
	return func(c *execConfig) { c.onBounds = cb }
}

// WithSeed sets the explicit random seed required by the Sample strategy;
// there is no ambient randomness anywhere in the engine, so any estimate
// is reproducible from the logged seed.
func WithSeed(seed int64) Option {
	return func(c *execConfig) { c.seed, c.seedSet = seed, true }
}

// WithSamples sets the Monte Carlo sample count per tuple (default
// DefaultSamples). Only meaningful with Sample.
func WithSamples(n int) Option {
	return func(c *execConfig) { c.samples, c.samplesSet = n, true }
}

// resolveOptions applies the options and validates their combination,
// rejecting contradictory requests with descriptive errors instead of
// silently picking a semantics.
func resolveOptions(opts []Option) (*execConfig, error) {
	c := &execConfig{mode: Auto, samples: DefaultSamples}
	for _, o := range opts {
		o(c)
	}
	switch c.mode {
	case Auto, Exact, Anytime, Sample:
	default:
		return nil, fmt.Errorf("pvcagg: unknown mode %v", c.mode)
	}
	if c.epsSet && (c.eps < 0 || c.eps >= 1 || math.IsNaN(c.eps)) {
		return nil, fmt.Errorf("pvcagg: epsilon %v out of range [0, 1)", c.eps)
	}
	if c.timeoutSet && c.timeout <= 0 {
		return nil, fmt.Errorf("pvcagg: WithTimeout(%v) must be positive", c.timeout)
	}
	if c.budget < 0 {
		return nil, fmt.Errorf("pvcagg: WithCompileBudget(%d) must be non-negative", c.budget)
	}
	switch c.mode {
	case Exact:
		if c.epsSet && c.eps > 0 {
			return nil, errors.New("pvcagg: WithEps conflicts with WithMode(Exact): exact execution has no approximation target; use Anytime or Auto")
		}
		if c.approxSet {
			return nil, errors.New("pvcagg: WithApprox conflicts with WithMode(Exact); use Anytime or Auto")
		}
	case Anytime, Auto:
		switch {
		case c.approx.Eps != 0:
			return nil, errors.New("pvcagg: WithApprox sets budgets only; set the target width with WithEps")
		case c.approx.Compile != (CompileOptions{}):
			return nil, errors.New("pvcagg: WithApprox sets budgets only; set the compile budget with WithCompileBudget")
		case c.approx.OnBounds != nil:
			return nil, errors.New("pvcagg: WithApprox sets budgets only; observe bounds with WithOnBounds")
		}
		if c.effEps() == 0 {
			if c.mode == Auto {
				return nil, errors.New("pvcagg: WithEps(0) conflicts with WithMode(Auto): ε = 0 disables the anytime fallback entirely; use WithMode(Exact), or a positive ε")
			}
			if c.approx.MaxNodes > 0 || c.approx.MaxExpansions > 0 || c.approx.Timeout > 0 {
				return nil, errors.New("pvcagg: contradictory anytime options: ε = 0 requests an exact answer, but a MaxNodes/MaxExpansions/Timeout budget can abandon it before convergence; set a positive ε for budgeted bounds, or use WithMode(Exact) with WithCompileBudget for a hard exact budget")
			}
		}
	case Sample:
		if !c.seedSet {
			return nil, errors.New("pvcagg: WithMode(Sample) requires an explicit WithSeed: the engine has no ambient randomness, so sampled estimates must be reproducible from a logged seed")
		}
		if c.epsSet {
			return nil, errors.New("pvcagg: WithEps conflicts with WithMode(Sample): the sampling error is set by WithSamples, not ε; use Anytime for guaranteed bounds of width ε")
		}
		if c.approxSet {
			return nil, errors.New("pvcagg: WithApprox conflicts with WithMode(Sample)")
		}
		if c.samples <= 0 {
			return nil, fmt.Errorf("pvcagg: WithSamples(%d) must be positive", c.samples)
		}
	}
	if c.seedSet && c.mode != Sample {
		return nil, fmt.Errorf("pvcagg: WithSeed only applies to WithMode(Sample); mode %v has no sampling step", c.mode)
	}
	if c.samplesSet && c.mode != Sample {
		return nil, fmt.Errorf("pvcagg: WithSamples only applies to WithMode(Sample)")
	}
	return c, nil
}

// effEps is the anytime target width: WithEps, or DefaultEps.
func (c *execConfig) effEps() float64 {
	if c.epsSet {
		return c.eps
	}
	return DefaultEps
}

// Strategy records how an execution was (or will be) carried out.
type Strategy struct {
	// Requested is the mode the caller asked for.
	Requested Mode
	// Chosen is the strategy that runs — Exact, Anytime or Sample, never
	// Auto.
	Chosen Mode
	// Verdict is the tractability classification that routed an Auto
	// plan execution (nil otherwise).
	Verdict *Verdict
	// Eps is the anytime target bound width (Chosen == Anytime).
	Eps float64
	// Parallelism is the configured worker bound (<= 0 ⇒ GOMAXPROCS).
	Parallelism int
	// Samples and Seed parameterise the sampling strategy (Chosen ==
	// Sample).
	Samples int
	Seed    int64
}

func (s Strategy) String() string {
	switch s.Chosen {
	case Anytime:
		if s.Verdict != nil {
			return fmt.Sprintf("anytime(ε=%g; %s)", s.Eps, s.Verdict.Reason)
		}
		return fmt.Sprintf("anytime(ε=%g)", s.Eps)
	case Sample:
		return fmt.Sprintf("sample(n=%d, seed=%d)", s.Samples, s.Seed)
	default:
		if s.Verdict != nil {
			return fmt.Sprintf("exact(%s)", s.Verdict.Reason)
		}
		return "exact"
	}
}

// build resolves the engine configuration for the chosen strategy (the
// sampling strategy still compiles aggregation columns exactly).
func (c *execConfig) build(chosen Mode, verdict *Verdict) (Strategy, engine.ExecConfig) {
	strat := Strategy{Requested: c.mode, Chosen: chosen, Verdict: verdict, Parallelism: c.par}
	ecfg := engine.ExecConfig{Compile: CompileOptions{MaxNodes: c.budget}, Parallelism: c.par, OnBounds: c.onBounds}
	switch chosen {
	case Anytime:
		a := c.approx
		a.Eps = c.effEps()
		a.Compile = ecfg.Compile
		a.OnBounds = c.onBounds
		ecfg.Approx = &a
		strat.Eps = a.Eps
	case Sample:
		ecfg.Samples = c.samples
		ecfg.Seed = c.seed
		strat.Samples = c.samples
		strat.Seed = c.seed
	}
	return strat, ecfg
}

// WithRetry attaches a per-query retry budget for transient store read
// errors: each failing block read is retried under capped exponential
// backoff with deterministic jitter, drawing on the policy's shared
// budget across every scan the query opens. ErrStoreCorrupt never
// retries (damage does not heal). When the policy allows bounded skips,
// a block that stays unreadable after retries is dropped soundly if its
// annotation summary proves every row is annotated zero — the degraded
// answer can only omit tuples whose confidence is exactly 0, and the
// skip is counted in Report.Store.BoundedBlocks; otherwise the query
// fails with an error matching ErrStorePartial. Zero policy fields take
// defaults (see store.DefaultRetryPolicy). Without WithRetry, scans
// still retry transient blips under a private per-scan default budget,
// but nothing is surfaced in the report and bounded skips are off.
func WithRetry(p RetryPolicy) Option {
	return func(c *execConfig) { c.retry, c.retrySet = p, true }
}

// ErrConsumed is returned when a Result's streaming iterator has already
// been consumed; run Exec again to iterate anew.
var ErrConsumed = errors.New("pvcagg: Result stream already consumed")

// ExecReport aggregates run-level execution statistics that have no
// per-tuple home.
type ExecReport struct {
	// Store reports what the WithRetry budget actually did: reads that
	// needed retrying, retries spent, operations abandoned, and blocks
	// soundly skipped via their all-zero annotation summaries. All zeros
	// without WithRetry.
	Store RetryStats
	// Trace is the execution trace passed via WithTrace (the same
	// pointer, for convenience); nil when tracing is off.
	Trace *Trace
	// Explain is the analyzed per-operator plan tree (WithExplainAnalyze
	// or the PVQL `EXPLAIN ANALYZE` prefix); nil otherwise.
	Explain *ExplainNode
}

// Result is one execution handed back by Exec or ExecTable: the evaluated
// result pvc-table (step I, already done) and the probability computation
// (step II), which runs on demand — either as an ordered batch (Collect)
// or as a stream that surfaces tuples as workers finish (Results).
type Result struct {
	// Rel is the evaluated result pvc-table, sorted by tuple key.
	Rel *Relation
	// Strategy records the chosen execution strategy, including the
	// tractability verdict that routed an Auto run.
	Strategy Strategy
	// Timing separates step I (Construct, final) from step II
	// (Probability, populated once Collect returns or the stream is
	// consumed).
	Timing RunTiming
	// Report carries run-level statistics, populated once Collect returns
	// or the stream is consumed.
	Report ExecReport

	db       *Database
	cfg      engine.ExecConfig
	retry    *store.RetryState
	ctx      context.Context
	cancel   context.CancelFunc
	execSpan *obs.Span // WithTrace: this execution's top-level span
	probSpan *obs.Span // WithTrace: step II span, opened lazily

	collected bool
	streamed  bool
	outcomes  []TupleOutcome
	err       error
}

// Len returns the number of result tuples.
func (r *Result) Len() int { return r.Rel.Len() }

// Close releases the Result's timeout context (WithTimeout) without
// consuming it. Collect and a drained Results call it implicitly;
// calling it is only needed when a WithTimeout Result is abandoned
// before step II — e.g. after inspecting only Rel or Strategy — so its
// timer does not linger until the deadline. Idempotent.
func (r *Result) Close() { r.finish() }

func (r *Result) finish() {
	if r.retry != nil {
		r.Report.Store = r.retry.Snapshot()
	}
	r.probSpan.End()
	if r.execSpan != nil {
		if r.retry != nil {
			s := r.Report.Store
			r.execSpan.SetAttr("store.retry_attempts", s.Attempts)
			r.execSpan.SetAttr("store.retries", s.Retries)
			r.execSpan.SetAttr("store.retries_exhausted", s.Exhausted)
			r.execSpan.SetAttr("store.bounded_blocks", s.BoundedBlocks)
		}
		r.execSpan.End()
		r.execSpan = nil
	}
	if r.cancel != nil {
		r.cancel()
		r.cancel = nil
	}
}

// noteOutcome folds one tuple outcome's report counters into the
// probability span. Sums over outcomes are order-independent, so the
// recorded attributes are deterministic at every parallelism.
func (r *Result) noteOutcome(o TupleOutcome) {
	sp := r.probSpan
	if sp == nil {
		return
	}
	sp.Add("tuples", 1)
	sp.Add("memo_hits", int64(o.Report.Exact.Compile.CacheHits))
	sp.Add("dtree_nodes", int64(o.Report.Exact.Compile.Nodes))
	if o.Report.Approx != nil {
		sp.Add("frontier_expansions", int64(o.Report.Approx.Expansions))
	}
	if o.Report.Samples > 0 {
		sp.Add("samples", int64(o.Report.Samples))
	}
}

// Collect computes (or returns the already-computed) outcome of every
// result tuple, in tuple order. Every failing tuple is reported, joined
// into one error; a cancelled context returns ctx.Err().
func (r *Result) Collect() ([]TupleOutcome, error) {
	if r.streamed {
		return nil, ErrConsumed
	}
	if !r.collected {
		r.probSpan = r.execSpan.StartSpan("probability")
		t0 := time.Now()
		r.outcomes, r.err = engine.Outcomes(r.ctx, r.db, r.Rel, r.cfg)
		r.Timing.Probability = time.Since(t0)
		r.collected = true
		for _, o := range r.outcomes {
			r.noteOutcome(o)
		}
		r.finish()
	}
	return r.outcomes, r.err
}

// Results streams tuple outcomes as workers finish — completion order,
// not tuple order (TupleOutcome.Index re-associates them) — so large
// workloads surface answers without a barrier. Per-tuple failures are
// yielded as (zero outcome, error) and the stream continues; breaking out
// cancels the remaining work. The live stream is single-use (ErrConsumed
// afterwards); after Collect, Results replays the cached outcomes in
// tuple order.
func (r *Result) Results() iter.Seq2[TupleOutcome, error] {
	return func(yield func(TupleOutcome, error) bool) {
		if r.collected {
			for _, o := range r.outcomes {
				if !yield(o, nil) {
					return
				}
			}
			if r.err != nil {
				yield(TupleOutcome{}, r.err)
			}
			return
		}
		if r.streamed {
			yield(TupleOutcome{}, ErrConsumed)
			return
		}
		r.streamed = true
		r.probSpan = r.execSpan.StartSpan("probability")
		t0 := time.Now()
		for o, err := range engine.Stream(r.ctx, r.db, r.Rel, r.cfg) {
			if err == nil {
				r.noteOutcome(o)
			}
			if !yield(o, err) {
				break
			}
		}
		r.Timing.Probability = time.Since(t0)
		r.finish()
	}
}

// Exec evaluates a plan on a database and computes the probabilistic
// interpretation of every result tuple under the configured strategy.
// Plan evaluation (step I) happens before Exec returns; probability
// computation (step II) runs when the Result is consumed via Collect or
// Results. The context cancels both steps: every compilation polls ctx
// at expansion steps, so even a runaway Shannon expansion aborts
// promptly with ctx.Err().
func Exec(ctx context.Context, db *Database, plan Plan, opts ...Option) (*Result, error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if db, err = cfg.resolveDB(db); err != nil {
		return nil, err
	}
	// Nil-safe span plumbing: without WithTrace every span is nil and
	// every span call below is a no-op — zero cost on the hot path.
	execSpan := cfg.trace.StartSpan("exec")
	chosen := cfg.mode
	var verdict *Verdict
	if cfg.mode == Auto {
		v := tractable.Classify(plan, db)
		verdict = &v
		if v.Class == Hard {
			chosen = Anytime
		} else {
			chosen = Exact
		}
	}
	strat, ecfg := cfg.build(chosen, verdict)
	execSpan.SetAttr("parallelism", int64(ecfg.Parallelism))
	var cancel context.CancelFunc
	if cfg.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
	}
	var retry *store.RetryState
	if cfg.retrySet {
		retry = store.NewRetryState(cfg.retry)
		ctx = store.ContextWithRetry(ctx, retry)
	}
	evalSpan := execSpan.StartSpan("eval")
	evalCtx := ctx
	if evalSpan != nil {
		// Store scans attribute their block counters to the eval span.
		evalCtx = obs.ContextWithSpan(ctx, evalSpan)
	}
	var rel *Relation
	var construct time.Duration
	var explain *engine.ExplainNode
	if cfg.analyze {
		rel, construct, explain, err = engine.StreamEvalPlanExplain(evalCtx, db, plan)
	} else {
		rel, construct, err = engine.StreamEvalPlan(evalCtx, db, plan)
	}
	if err != nil {
		evalSpan.End()
		execSpan.End()
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
	evalSpan.SetAttr("rows", int64(rel.Len()))
	evalSpan.End()
	res := &Result{
		Rel:      rel,
		Strategy: strat,
		Timing:   RunTiming{Construct: construct},
		db:       db,
		cfg:      ecfg,
		retry:    retry,
		ctx:      ctx,
		cancel:   cancel,
		execSpan: execSpan,
	}
	res.Report.Trace = cfg.trace
	res.Report.Explain = explain
	if retry != nil {
		// Scans happen in step I, which is already done; surface the
		// retry counters even if the Result is never consumed.
		res.Report.Store = retry.Snapshot()
	}
	return res, nil
}

// ExecTable is Exec over an already-evaluated pvc-table: only step II
// runs. Auto mode selects the anytime engine (there is no plan to
// classify; its exact leaf closures resolve easy annotations to
// zero-width bounds anyway).
func ExecTable(ctx context.Context, db *Database, rel *Relation, opts ...Option) (*Result, error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if db, err = cfg.resolveDB(db); err != nil {
		return nil, err
	}
	chosen := cfg.mode
	if chosen == Auto {
		chosen = Anytime
	}
	strat, ecfg := cfg.build(chosen, nil)
	var cancel context.CancelFunc
	if cfg.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
	}
	res := &Result{
		Rel:      rel,
		Strategy: strat,
		db:       db,
		cfg:      ecfg,
		ctx:      ctx,
		cancel:   cancel,
		execSpan: cfg.trace.StartSpan("exec"),
	}
	res.Report.Trace = cfg.trace
	return res, nil
}

// ExprResult is the probabilistic interpretation of one bare expression.
type ExprResult struct {
	// Confidence brackets the probability that the (semiring) expression
	// is non-zero; zero-width under exact strategies, guaranteed bounds
	// under Anytime, a 95% interval under Sample. Meaningless for
	// semimodule expressions (which have no truth value).
	Confidence Bounds
	// Dist is the full distribution of the expression — exact under
	// Exact/Auto-exact, a Monte Carlo estimate under Sample, empty under
	// Anytime (which brackets the confidence only).
	Dist Dist
	// Strategy records the chosen strategy; under Auto, Chosen reports
	// whether the exact probe succeeded or the anytime engine took over.
	Strategy Strategy
	// Report describes the exact computation (exact strategies).
	Report Report
	// Approx describes the anytime computation (anytime strategy).
	Approx *ApproxReport
}

// ExecExpr computes the probabilistic interpretation of a bare semiring
// or semimodule expression over a registry — the expression-level
// counterpart of Exec. Auto mode probes exact compilation under a node
// budget (WithCompileBudget, default 2¹⁸ nodes) and falls back to the
// anytime engine at the configured ε when the budget is exceeded.
func ExecExpr(ctx context.Context, e Expr, reg *Registry, kind SemiringKind, opts ...Option) (*ExprResult, error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if cfg.store != nil {
		return nil, errors.New("pvcagg: WithStore does not apply to ExecExpr: a bare expression carries its own registry and scans no tables")
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	semiring := e.Kind() == KindSemiring
	switch cfg.mode {
	case Exact:
		strat, ecfg := cfg.build(Exact, nil)
		return execExprExact(ctx, e, reg, kind, ecfg, strat)
	case Anytime:
		if !semiring {
			return nil, fmt.Errorf("pvcagg: the anytime engine brackets truth probabilities and %s is a semimodule expression; use Exact", ExprString(e))
		}
		strat, ecfg := cfg.build(Anytime, nil)
		return execExprAnytime(ctx, e, reg, kind, ecfg, strat)
	case Sample:
		strat, ecfg := cfg.build(Sample, nil)
		return execExprSample(ctx, e, reg, kind, ecfg, strat)
	default: // Auto
		strat, ecfg := cfg.build(Exact, nil)
		if ecfg.Compile.MaxNodes == 0 {
			ecfg.Compile.MaxNodes = autoExprBudget
		}
		res, err := execExprExact(ctx, e, reg, kind, ecfg, strat)
		if err == nil || !semiring || !errors.Is(err, compile.ErrNodeBudget) {
			return res, err
		}
		strat, ecfg = cfg.build(Anytime, nil)
		return execExprAnytime(ctx, e, reg, kind, ecfg, strat)
	}
}

func execExprExact(ctx context.Context, e Expr, reg *Registry, kind SemiringKind, ecfg engine.ExecConfig, strat Strategy) (*ExprResult, error) {
	pl := &core.Pipeline{Semiring: algebra.SemiringFor(kind), Registry: reg, Options: ecfg.Compile}
	d, rep, err := pl.DistributionCtx(ctx, e)
	if err != nil {
		return nil, err
	}
	res := &ExprResult{Dist: d, Strategy: strat, Report: rep}
	if e.Kind() == KindSemiring {
		res.Confidence = compile.Point(d.TruthProbability())
	}
	if ecfg.OnBounds != nil {
		ecfg.OnBounds(res.Confidence)
	}
	return res, nil
}

func execExprAnytime(ctx context.Context, e Expr, reg *Registry, kind SemiringKind, ecfg engine.ExecConfig, strat Strategy) (*ExprResult, error) {
	b, rep, err := compile.ApproximateCtx(ctx, algebra.SemiringFor(kind), reg, e, *ecfg.Approx)
	if err != nil {
		return nil, err
	}
	return &ExprResult{Confidence: b, Strategy: strat, Approx: &rep}, nil
}

func execExprSample(ctx context.Context, e Expr, reg *Registry, kind SemiringKind, ecfg engine.ExecConfig, strat Strategy) (*ExprResult, error) {
	rng := rand.New(rand.NewSource(ecfg.Seed))
	d, err := worlds.MonteCarloCtx(ctx, e, reg, algebra.SemiringFor(kind), ecfg.Samples, rng)
	if err != nil {
		return nil, err
	}
	res := &ExprResult{Dist: d, Strategy: strat}
	if e.Kind() == KindSemiring {
		lo, hi := worlds.Hoeffding95(d.TruthProbability(), ecfg.Samples)
		res.Confidence = Bounds{Lo: lo, Hi: hi}
	}
	if ecfg.OnBounds != nil {
		ecfg.OnBounds(res.Confidence)
	}
	return res, nil
}
