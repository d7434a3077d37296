// Package pvcagg is a Go implementation of "Aggregation in Probabilistic
// Databases via Knowledge Compilation" (Fink, Han, Olteanu, PVLDB 5(5),
// 2012): pvc-tables as a representation system for probabilistic data with
// aggregates, positive relational algebra with grouping/aggregation whose
// results carry semiring and semimodule annotations, and exact probability
// computation by compiling annotations into decomposition trees.
//
// The package is a facade over the internal implementation; everything a
// downstream user needs is re-exported here:
//
//   - expression parsing and probability computation (ParseExpr,
//     ExecExpr, NewPipeline);
//   - pvc-databases and relations (NewDatabase, NewRelation, cells);
//   - query plans (Scan, Select, Project, Join, Union, GroupAgg) and
//     end-to-end evaluation (Exec);
//   - the Qind/Qhie tractability analysis (Classify);
//   - the possible-worlds and Monte-Carlo baselines (Enumerate,
//     MonteCarlo) for validation.
//
// Quick start:
//
//	reg := pvcagg.NewRegistry()
//	reg.DeclareBool("x", 0.5)
//	reg.DeclareBool("y", 0.5)
//	e := pvcagg.MustParseExpr("[min(x @min 10, y @min 20) <= 15]")
//	res, _ := pvcagg.ExecExpr(context.Background(), e, reg, pvcagg.Boolean)
//	fmt.Println(res.Dist) // {(0, 0.5), (1, 0.5)}
//
// # Executing queries
//
// Exec is the one entrypoint for query evaluation: it evaluates a plan,
// then computes the probabilistic interpretation of every result tuple
// under a strategy selected by functional options, returning one unified
// Result whose per-tuple Confidence is always an interval (exact runs
// yield zero-width intervals):
//
//	res, err := pvcagg.Exec(ctx, db, plan)           // adaptive (Auto)
//	outs, err := res.Collect()                       // all tuples, in order
//
// Three strategies cover the paper's whole difficulty spectrum, plus the
// adaptive default:
//
//   - WithMode(Exact): full d-tree compilation (Section 5), exponential
//     on hard queries; bound it with WithCompileBudget. The probability
//     step is distributed over a bounded worker pool across result
//     tuples (WithParallelism, default GOMAXPROCS); each tuple compiles
//     on one goroutine. All heuristics are deterministic, so results —
//     and compile budgets — are bit-for-bit identical at every
//     parallelism.
//   - WithMode(Anytime): guaranteed confidence bounds of width ≤ ε
//     (WithEps, default DefaultEps) by priority-driven partial
//     expansion; aggregation-column distributions stay exact. WithApprox
//     sets budgets only (leaf, expansion, node and per-tuple time
//     budgets), which return sound, unconverged bounds on exhaustion.
//   - WithMode(Sample): explicitly-seeded Monte Carlo estimation
//     (WithSeed, required; WithSamples) with 95% Hoeffding intervals —
//     the baseline strategy.
//   - WithMode(Auto), the default: the Section 6 tractability analysis
//     (Classify) routes each plan — tractable plans (Qind/Qhie) run
//     exactly, hard plans run on the anytime engine — and the verdict is
//     recorded in Result.Strategy.
//
// Execution is context-aware end to end: every compilation polls ctx at
// expansion steps, so cancelling the context (or WithTimeout) aborts even
// a runaway Shannon expansion promptly:
//
//	ctx, cancel := context.WithCancel(context.Background())
//	res, err := pvcagg.Exec(ctx, db, plan, pvcagg.WithMode(pvcagg.Exact))
//	// cancel() from another goroutine → Collect returns ctx.Err()
//
// Large workloads can consume tuples as workers finish instead of after a
// barrier, via the streaming iterator:
//
//	for out, err := range res.Results() {
//		// out.Index identifies the tuple; completion order
//	}
//
// Bare expressions run through ExecExpr and already-evaluated pvc-tables
// through ExecTable, with the same options.
//
// # Execution model
//
// Step I — evaluating the plan into the annotated answer relation — is
// a pull-iterator pipeline. Scans are lazy, selections/renames/prunes
// pipeline tuple-at-a-time, joins and products hash only their build
// side (pre-sized from the cardinality estimator), filters over joins
// fuse into the pair iterator so rejected pairs never allocate, and the
// duplicate-eliminating operators group incrementally. It is held to the
// paper's semantics world by world: for every valuation ν of the input's
// variables, evaluating the result's annotations and aggregates under ν
// gives exactly what the same plan computes on the deterministic
// database ν selects.
//
// # Query language
//
// PVQL is the declarative frontend over the Q-algebra: ExecQuery parses
// a small SQL-like language (SELECT/FROM/WHERE/GROUP BY with the
// paper's aggregation monoids as functions, JOIN/","/UNION for ⋈/×/∪,
// AS for δ, sub-queries for nesting), binds it against the database
// schema with byte-positioned errors (*QueryError), rewrites the plan
// through a logical optimizer — predicate pushdown, Product+Select→Join
// fusion, greedy join reordering by estimated cardinality, and
// collapse-free projection pruning (the π̂ Prune operator) — and then
// executes it through Exec, so every option applies and Auto classifies
// the optimized plan:
//
//	res, err := pvcagg.ExecQuery(ctx, db, `
//	  SELECT shop FROM (
//	    SELECT shop, MAX(price) AS P FROM (
//	      SELECT shop, price FROM S JOIN PS JOIN (SELECT * FROM P1 UNION SELECT * FROM P2)
//	    ) GROUP BY shop
//	  ) WHERE P <= 50`)
//
// WHERE comparisons over aggregation columns are the paper's σ over
// semimodule values; AVG lowers to the joint (SUM, COUNT) pair of
// Section 2.2. ParseQuery compiles without executing; ParsePlan inverts
// Plan.String over its printable subset. The README's "Query language"
// section has the full grammar (EBNF), worked examples for all three
// strategies, and the optimizer's rewrite list with its differential
// guarantees.
//
// # Performance
//
// The probability pipeline is built for constant-factor speed without
// changing semantics: variable names intern into dense IDs
// (slice-indexed registry, ID-based Shannon substitution), the compilers
// memoise sub-expressions on cached structural hashes rather than
// canonical strings, and the distribution kernels exploit the
// value-sorted representation (dense-window convolution, k-way-merge
// mixtures, prefix-mass comparisons in O(|a|+|b|)).
// CompileOptions.DisableMemo ablates sub-expression memoisation (and
// with it the structural-hash machinery) inside one compile.
//
// Memoisation and interning are exact (bit-for-bit); of the kernels,
// Convolve/Map/Mixture accumulate in the reference kernels' exact order
// while CmpConvolve regroups its summation and may differ from the
// historical implementation in the final ulp.
//
// The README's "Performance" section describes the design.
//
// # Observability
//
// Every stage is instrumented, at zero cost when unused: WithTrace
// records a span tree (parse → bind → optimize → exec{eval,
// probability}) with wall time, allocation deltas and stage counters;
// WithExplainAnalyze — or a PVQL `EXPLAIN [ANALYZE]` prefix — returns
// the plan tree with estimated vs. actual per-operator row counts in
// ExecReport.Explain; and the internal/server service exports
// Prometheus metrics on /metrics with opt-in pprof. The README's
// "Observability" section has the trace anatomy, the metric series, an
// EXPLAIN ANALYZE walkthrough, and how to attach a profiler to pvcd.
package pvcagg

import (
	"math/rand"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/core"
	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/gen"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
	"pvcagg/internal/tractable"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
	"pvcagg/internal/worlds"
)

// Carrier values and comparisons.
type (
	// V is a carrier value: an exact integer extended with ±∞.
	V = value.V
	// Theta is a comparison operator (=, ≠, ≤, ≥, <, >).
	Theta = value.Theta
)

// Value constructors and the six comparison operators.
var (
	Int    = value.Int
	BoolV  = value.Bool
	PosInf = value.PosInf
	NegInf = value.NegInf
)

// Comparison operators.
const (
	EQ = value.EQ
	NE = value.NE
	LE = value.LE
	GE = value.GE
	LT = value.LT
	GT = value.GT
)

// Algebraic structures.
type (
	// Agg names an aggregation monoid.
	Agg = algebra.Agg
	// SemiringKind selects the valuation semiring.
	SemiringKind = algebra.SemiringKind
)

// Aggregation monoids and semirings.
const (
	SUM   = algebra.Sum
	MIN   = algebra.Min
	MAX   = algebra.Max
	PROD  = algebra.Prod
	COUNT = algebra.Count

	Boolean = algebra.Boolean
	Natural = algebra.Natural
)

// Expressions.
type (
	// Expr is a semiring, semimodule or conditional expression.
	Expr = expr.Expr
	// Valuation assigns values to variables (one possible world).
	Valuation = expr.Valuation
)

// Expression constructors and utilities.
var (
	// ParseExpr parses the textual expression syntax, e.g.
	// "[min(x*y @min 5, z @min 10) <= 7]". Input nested more than a
	// thousand levels deep fails with an error wrapping ErrTooDeep.
	ParseExpr = expr.Parse
	// ErrTooDeep is wrapped by ParseExpr's error for such input.
	ErrTooDeep = expr.ErrTooDeep
	// MustParseExpr is ParseExpr for known-good literals.
	MustParseExpr = expr.MustParse
	// ExprString renders an expression canonically.
	ExprString = expr.String
	// Vars lists the variables of an expression.
	Vars = expr.Vars
)

// Probability distributions.
type (
	// Dist is a finite discrete probability distribution.
	Dist = prob.Dist
	// Pair is one (value, probability) entry of a Dist.
	Pair = prob.Pair
)

// Distribution constructors.
var (
	DistOf    = prob.FromPairs
	PointDist = prob.Point
	Bernoulli = prob.Bernoulli
)

// Registry is the set X of independent random variables with their
// distributions, inducing the probability space Ω.
type Registry = vars.Registry

// NewRegistry returns an empty variable registry.
func NewRegistry() *Registry { return vars.NewRegistry() }

// Pipeline compiles expressions to decomposition trees and computes exact
// probability distributions (the paper's Section 5).
type Pipeline = core.Pipeline

// Report describes compilation and evaluation cost of one computation.
type Report = core.Report

// CompileOptions configure d-tree compilation (ablations and budgets).
type CompileOptions = compile.Options

// NewPipeline returns a Pipeline over the given semiring and registry.
func NewPipeline(kind SemiringKind, reg *Registry) *Pipeline { return core.New(kind, reg) }

// pvc-tables.
type (
	// Database is a pvc-database: named pvc-tables over one probability
	// space.
	Database = pvc.Database
	// Relation is a pvc-table.
	Relation = pvc.Relation
	// Schema is an ordered list of columns.
	Schema = pvc.Schema
	// Col is a column declaration.
	Col = pvc.Col
	// Cell is one tuple value.
	Cell = pvc.Cell
	// Tuple is one annotated row.
	Tuple = pvc.Tuple
)

// Column types.
const (
	TValue  = pvc.TValue
	TString = pvc.TString
	TModule = pvc.TModule
)

// Cell constructors.
var (
	IntCell    = pvc.IntCell
	ValueCell  = pvc.ValueCell
	StringCell = pvc.StringCell
	ExprCell   = pvc.ExprCell
)

// NewDatabase returns an empty pvc-database over a fresh registry.
func NewDatabase(kind SemiringKind) *Database { return pvc.NewDatabase(kind) }

// NewRelation returns an empty pvc-table.
func NewRelation(name string, schema Schema) *Relation { return pvc.NewRelation(name, schema) }

// Query plans (the Q algebra of Definition 5).
type (
	Plan    = engine.Plan
	Scan    = engine.Scan
	Rename  = engine.Rename
	Select  = engine.Select
	Project = engine.Project
	// Prune is the optimizer's π̂: column pruning without duplicate
	// collapse (annotations untouched).
	Prune    = engine.Prune
	Product  = engine.Product
	Join     = engine.Join
	Union    = engine.Union
	GroupAgg = engine.GroupAgg
	AggSpec  = engine.AggSpec
	Pred     = engine.Pred
	// RunTiming separates expression construction from probability
	// computation.
	RunTiming = engine.RunTiming
)

// Predicate builders.
var (
	Where       = engine.Where
	ColEqCol    = engine.ColEqCol
	ColTheta    = engine.ColTheta
	ColThetaCol = engine.ColThetaCol
)

// Anytime approximation (see the "Executing queries" package-doc
// section).
type (
	// Bounds is an interval [Lo, Hi] guaranteed to contain the exact
	// probability.
	Bounds = compile.Bounds
	// ApproxOptions configure anytime approximation. WithApprox takes
	// its budgets (MaxLeafNodes, MaxExpansions, MaxNodes, Timeout); the
	// target width is WithEps.
	ApproxOptions = compile.ApproxOptions
	// ApproxReport describes one anytime computation (bounds,
	// convergence, expansion and node counts).
	ApproxReport = compile.ApproxReport
)

// Tractability analysis (Section 6).
type (
	// Verdict is a tractability classification with its reason.
	Verdict = tractable.Verdict
	// Class is Qind, Qhie or hard.
	Class = tractable.Class
)

// Tractability classes.
const (
	Hard = tractable.Hard
	Qind = tractable.Ind
	Qhie = tractable.Hie
)

// Classify analyses a plan per Definitions 8/9.
func Classify(p Plan, db *Database) Verdict { return tractable.Classify(p, db) }

// AVG composition (paper Section 2.2: AVG is composed from SUM and COUNT
// via the joint distribution).
type (
	// AvgDist is the exact distribution of an average.
	AvgDist = core.AvgDist
	// Ratio is an exact rational average outcome.
	Ratio = core.Ratio
)

// Baselines.

// Enumerate computes an exact distribution by possible-worlds enumeration
// (exponential; for validation on small inputs).
func Enumerate(e Expr, reg *Registry, kind SemiringKind) (Dist, error) {
	return worlds.Enumerate(e, reg, algebra.SemiringFor(kind))
}

// MonteCarlo estimates a distribution from n sampled worlds. Sampling is
// driven by an explicitly seeded rand.Rand, so any estimate is
// reproducible from the logged seed.
func MonteCarlo(e Expr, reg *Registry, kind SemiringKind, n int, seed int64) (Dist, error) {
	return worlds.MonteCarlo(e, reg, algebra.SemiringFor(kind), n, rand.New(rand.NewSource(seed)))
}

// Random expression generation (the paper's Section 7.1 workload).
type (
	// GenParams parameterise the random conditional-expression generator.
	GenParams = gen.Params
	// GenInstance is one generated expression with its registry.
	GenInstance = gen.Instance
)

// Generate builds one random conditional expression per Eq. (11).
func Generate(p GenParams) (GenInstance, error) { return gen.New(p) }
