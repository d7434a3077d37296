package pvcagg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/engine"
	"pvcagg/internal/obs"
	"pvcagg/internal/store"
)

// This file is the unified execution API: one context-aware entrypoint
// (Exec for plans, ExecExpr for bare expressions) configured by
// functional options, with adaptive strategy selection (Auto mode picks
// exact or anytime per tuple, by the Section 6 node bound).

// Mode selects the execution strategy.
type Mode int

const (
	// Auto picks the strategy per tuple: each annotation compiles exactly
	// under WithCompileBudget or, without one, under the Section 6 bound
	// every tuple of a tractable query meets (v² + 6v + 8 d-tree nodes, v
	// the sum of its variables' support sizes less one); one over it is
	// bracketed by the anytime engine at the configured ε (DefaultEps
	// unless WithEps is given), from scratch.
	Auto Mode = iota
	// Exact computes every confidence and distribution exactly by full
	// d-tree compilation (exponential on hard queries; bound it with
	// WithCompileBudget).
	Exact
	// Anytime brackets every confidence within ε by partial d-tree
	// expansion with guaranteed bounds; aggregation-column distributions
	// stay exact. WithEps(0) asks for the exact answer, so it runs Exact
	// (Strategy.Chosen reports it).
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

// Option configures Exec, ExecQuery and ExecExpr.
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
// or anytime fallbacks (under Auto, where it replaces the per-tuple
// Section 6 bound). It bounds every full exact compilation: annotations
// under Exact and Auto (and under Anytime at ε = 0, which runs Exact),
// and aggregation columns under every strategy.
func WithCompileBudget(maxNodes int) Option {
	return func(c *execConfig) { c.budget = maxNodes }
}

// WithApprox sets the anytime engine's budgets: MaxLeafNodes,
// MaxExpansions, MaxNodes and the per-tuple Timeout, each non-negative
// (0 takes the default the field names). Budgets only: the target width
// is WithEps, and setting ApproxOptions.Eps here is an error naming it.
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
	for _, f := range []struct {
		name string
		neg  bool
	}{
		{"MaxLeafNodes", c.approx.MaxLeafNodes < 0},
		{"MaxExpansions", c.approx.MaxExpansions < 0},
		{"MaxNodes", c.approx.MaxNodes < 0},
		{"Timeout", c.approx.Timeout < 0},
	} {
		if f.neg {
			return nil, fmt.Errorf("pvcagg: WithApprox: ApproxOptions.%s must be non-negative", f.name)
		}
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
		if c.approx.Eps != 0 {
			return nil, errors.New("pvcagg: WithApprox sets budgets only; set the target width with WithEps")
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
	// Chosen is the strategy that runs: Auto for an Auto plan, whose
	// anytime-bracketed tuples set TupleReport.Approx, and Exact or
	// Anytime for ExecExpr's one expression.
	Chosen Mode
	// Eps is the anytime target bound width (Chosen Anytime or Auto).
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
	case Auto:
		return fmt.Sprintf("auto(ε=%g)", s.Eps)
	case Anytime:
		return fmt.Sprintf("anytime(ε=%g)", s.Eps)
	case Sample:
		return fmt.Sprintf("sample(n=%d, seed=%d)", s.Samples, s.Seed)
	default:
		return "exact"
	}
}

// build resolves the engine configuration for the chosen strategy (every
// strategy still compiles aggregation columns exactly).
func (c *execConfig) build() (Strategy, engine.ExecConfig) {
	strat := Strategy{Requested: c.mode, Chosen: c.mode, Parallelism: c.par}
	if c.mode == Anytime && c.effEps() == 0 {
		strat.Chosen = Exact // an anytime run to width 0 is the exact run
	}
	ecfg := engine.ExecConfig{Compile: compile.Options{MaxNodes: c.budget}, Parallelism: c.par}
	switch strat.Chosen {
	case Anytime, Auto:
		a := c.approx
		a.Eps = c.effEps()
		ecfg.Approx = &a
		ecfg.Auto = strat.Chosen == Auto
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

// Counters is what one execution counted, filled on every run whether
// or not it is traced. The paper's Section 7 quantities are
// Exact.Compile.Nodes (the d-trees' size), Exact.Compile.Shannon and
// Exact.Eval.MaxDistSize.
type Counters struct {
	// Rows is the result pvc-table's tuple count (step I).
	Rows int
	// Store is the I/O of this execution's own store scans (step I):
	// blocks and bytes read and skipped, rows read. Zero in memory.
	Store StoreMetrics
	// Tuples counts the outcomes that finished (step II).
	Tuples int
	// Exact sums their exact compilations and evaluations: every
	// counter adds, and Eval.MaxDistSize is the largest distribution.
	Exact Report
	// Expansions sums their anytime frontier expansions, Samples their
	// sampled worlds.
	Expansions int
	Samples    int
}

// ExecReport aggregates run-level execution statistics that have no
// per-tuple home.
type ExecReport struct {
	// Counters is what the execution counted: step I's as Exec or
	// ExecQuery returns, step II's once Collect returns.
	Counters Counters
	// Store reports what the WithRetry budget actually did: reads that
	// needed retrying, retries spent, operations abandoned, and blocks
	// soundly skipped via their all-zero annotation summaries. All zeros
	// without WithRetry.
	Store RetryStats
	// Trace is the execution trace passed via WithTrace (the same
	// pointer, for convenience): the stages' spans and their times. Nil
	// when tracing is off.
	Trace *Trace
	// Explain is the analyzed per-operator plan tree (WithExplainAnalyze
	// or the PVQL `EXPLAIN ANALYZE` prefix); nil otherwise.
	Explain *ExplainNode
}

// Result is one execution handed back by Exec or ExecQuery: the evaluated
// result pvc-table (step I, already done) and the probability computation
// (step II), which runs on demand when Collect is called.
type Result struct {
	// Rel is the evaluated result pvc-table, sorted by tuple key.
	Rel *Relation
	// Strategy records the chosen execution strategy.
	Strategy Strategy
	// Timing separates step I (Construct, final) from step II
	// (Probability, populated once Collect returns).
	Timing RunTiming
	// Report carries run-level statistics, populated once Collect returns.
	Report ExecReport

	db       *Database
	cfg      engine.ExecConfig
	retry    *store.RetryState
	ctx      context.Context
	cancel   context.CancelFunc
	execSpan *obs.Span // WithTrace: this execution's top-level span

	collected bool
	outcomes  []TupleOutcome
	err       error
}

// Len returns the number of result tuples.
func (r *Result) Len() int { return r.Rel.Len() }

// Close releases the Result's timeout context (WithTimeout) without
// consuming it. Collect calls it implicitly; calling it is only needed when a WithTimeout Result is abandoned
// before step II — e.g. after inspecting only Rel or Strategy — so its
// timer does not linger until the deadline. Idempotent.
func (r *Result) Close() { r.finish() }

func (r *Result) finish() {
	if r.retry != nil {
		r.Report.Store = r.retry.Snapshot()
	}
	r.execSpan.End()
	if r.cancel != nil {
		r.cancel()
		r.cancel = nil
	}
}

// Collect computes (or returns the already-computed) outcomes of the
// result tuples. It returns the outcomes that finished, in tuple order
// (TupleOutcome.Index names each one's tuple), alongside an error: the
// context's when it was cancelled or timed out before every tuple
// finished, and otherwise every failing tuple's, joined into one. So a
// cancelled run still hands back what it computed.
func (r *Result) Collect() ([]TupleOutcome, error) {
	if !r.collected {
		sp := r.execSpan.StartSpan("probability")
		t0 := time.Now()
		r.outcomes, r.err = engine.Outcomes(r.ctx, r.db, r.Rel, r.cfg)
		r.Timing.Probability = time.Since(t0)
		sp.End()
		r.collected = true
		c := &r.Report.Counters
		c.Tuples = len(r.outcomes)
		c.Exact, c.Expansions, c.Samples = engine.SumReports(r.outcomes)
		r.finish()
	}
	return r.outcomes, r.err
}

// Exec evaluates a plan on a database and computes the probabilistic
// interpretation of every result tuple under the configured strategy.
// Plan evaluation (step I) happens before Exec returns; probability
// computation (step II) runs when the Result's Collect is called. The
// context cancels both steps: every compilation polls ctx at expansion
// steps, so even a runaway Shannon expansion aborts promptly with
// ctx.Err().
func Exec(ctx context.Context, db *Database, plan Plan, opts ...Option) (*Result, error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if db, err = cfg.resolveDB(db); err != nil {
		return nil, err
	}
	return cfg.exec(ctx, db, plan)
}

// exec is Exec under resolved options, on the resolved database.
func (cfg *execConfig) exec(ctx context.Context, db *Database, plan Plan) (*Result, error) {
	// Nil-safe span plumbing: without WithTrace every span is nil and
	// every span call below is a no-op — zero cost on the hot path.
	execSpan := cfg.trace.StartSpan("exec")
	strat, ecfg := cfg.build()
	var cancel context.CancelFunc
	if cfg.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
	}
	var retry *store.RetryState
	if cfg.retrySet {
		retry = store.NewRetryState(cfg.retry)
		ctx = store.ContextWithRetry(ctx, retry)
	}
	// The query's store scans count into its own account.
	reads := new(store.Metrics)
	ctx = store.ContextWithMetrics(ctx, reads)
	evalSpan := execSpan.StartSpan("eval")
	var rel *Relation
	var construct time.Duration
	var explain *engine.ExplainNode
	var err error
	if cfg.analyze {
		rel, construct, explain, err = engine.StreamEvalPlanExplain(ctx, db, plan)
	} else {
		rel, construct, err = engine.StreamEvalPlan(ctx, db, plan)
	}
	evalSpan.End()
	if err != nil {
		execSpan.End()
		if cancel != nil {
			cancel()
		}
		return nil, err
	}
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
	res.Report.Counters.Rows = rel.Len()
	res.Report.Counters.Store = reads.Snapshot()
	res.Report.Trace = cfg.trace
	res.Report.Explain = explain
	if retry != nil {
		// Scans happen in step I, which is already done; surface the
		// retry counters even if the Result is never consumed.
		res.Report.Store = retry.Snapshot()
	}
	return res, nil
}

// ExprResult is the probabilistic interpretation of one bare expression.
type ExprResult struct {
	// Confidence brackets the probability that the (semiring) expression
	// is non-zero; zero-width under exact strategies, guaranteed bounds
	// under Anytime, a 95% interval under Sample. Zero for semimodule
	// expressions, which have no truth value.
	Confidence Bounds
	// Dist is the full distribution of the expression — exact under
	// Exact, a Monte Carlo estimate under Sample, empty under Anytime
	// (which brackets the confidence only).
	Dist Dist
	// Strategy records the chosen strategy; under Auto, Chosen reports
	// whether the expression compiled within its node budget.
	Strategy Strategy
	// Report describes the exact computation (exact strategies).
	Report Report
	// Approx describes the anytime computation (anytime strategy).
	Approx *ApproxReport
}

// ExecExpr computes the probabilistic interpretation of a bare semiring
// or semimodule expression over a registry — the expression-level
// counterpart of Exec, computed by the same per-tuple dispatch as tuple 0,
// so Auto treats it as it treats a tuple's annotation (see Auto); a
// semimodule expression has no anytime fallback, so Auto runs it exactly
// under WithCompileBudget alone. WithStore, WithRetry, WithTrace and
// WithExplainAnalyze, which only a plan execution reads, are errors.
func ExecExpr(ctx context.Context, e Expr, reg *Registry, kind SemiringKind, opts ...Option) (*ExprResult, error) {
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.store != nil:
		return nil, errors.New("pvcagg: WithStore does not apply to ExecExpr: a bare expression carries its own registry and scans no tables")
	case cfg.retrySet:
		return nil, errors.New("pvcagg: WithRetry does not apply to ExecExpr: a bare expression scans no tables, so there are no reads to retry")
	case cfg.trace != nil:
		return nil, errors.New("pvcagg: WithTrace does not apply to ExecExpr: it records the stages of a plan execution; read ExprResult.Report or Approx instead")
	case cfg.analyze:
		return nil, errors.New("pvcagg: WithExplainAnalyze does not apply to ExecExpr: a bare expression has no plan to explain")
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	strat, ecfg := cfg.build()
	conf, d, rep, err := engine.Interpret(ctx, algebra.SemiringFor(kind), reg, e, ecfg)
	if err != nil {
		return nil, err
	}
	if strat.Chosen == Auto {
		strat.Chosen, strat.Eps = Exact, 0
		if rep.Approx != nil {
			strat.Chosen, strat.Eps = Anytime, ecfg.Approx.Eps
		}
	}
	return &ExprResult{Confidence: conf, Dist: d, Strategy: strat, Report: rep.Exact, Approx: rep.Approx}, nil
}
