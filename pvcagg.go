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
//     ExecExpr), and joint distributions (Joint, Average);
//   - pvc-databases and relations (NewDatabase, NewRelation, cells);
//   - query plans (Scan, Select, Project, Join, Union, GroupAgg) and
//     end-to-end evaluation (Exec);
//   - the Qind/Qhie tractability analysis (Classify);
//   - the possible-worlds baseline (Enumerate) for validation; the
//     Monte Carlo baseline is the Sample strategy.
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
//     expansion; aggregation-column distributions stay exact. WithEps(0)
//     asks for the exact answer and runs WithMode(Exact). WithApprox
//     sets budgets only (leaf, expansion, node and per-tuple time
//     budgets), which return sound, unconverged bounds on exhaustion.
//   - WithMode(Sample): explicitly-seeded Monte Carlo estimation
//     (WithSeed, required; WithSamples) with 95% Hoeffding intervals —
//     the baseline strategy.
//   - WithMode(Auto), the default: each tuple compiles exactly within
//     the Section 6 node bound every tuple of a Qind/Qhie query meets
//     (or WithCompileBudget); one over it is bracketed by the anytime
//     engine at ε, and its TupleReport.Approx says so.
//
// Execution is context-aware end to end: every compilation polls ctx at
// expansion steps, so cancelling the context (or WithTimeout) aborts even
// a runaway Shannon expansion promptly:
//
//	ctx, cancel := context.WithCancel(context.Background())
//	res, err := pvcagg.Exec(ctx, db, plan, pvcagg.WithMode(pvcagg.Exact))
//	// cancel() from another goroutine → Collect returns ctx.Err(),
//	// alongside the outcomes of the tuples that finished first
//
// Bare expressions run through ExecExpr, with the same step-II options.
// Step II exists once: Exec and ExecExpr compute a confidence through
// the engine's one strategy dispatch, and Exec fans tuples over its one
// worker pool.
//
// # Execution model
//
// Step I — evaluating the plan into the annotated answer relation — is
// a pull-iterator pipeline. Scans are lazy, selections/renames/prunes
// pipeline tuple-at-a-time, joins and products hash only their build
// side, and the duplicate-eliminating operators group incrementally. It is held to the
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
// fusion, a structural join order, collapse-free projection pruning (the
// π̂ Prune operator) and a build-side choice by provable row bounds — and
// then executes it through Exec, so every option applies and Auto
// routes each tuple of the optimized plan:
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
// Section 2.2. ParseQuery compiles without executing; Plan.String renders
// the optimized plan for display. The README's "Query language"
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
// Every run fills ExecReport.Counters (rows, its own store I/O, d-tree
// and distribution sizes); WithTrace records a span tree (parse → bind →
// optimize → exec{eval, probability}) with wall time and allocation
// deltas, at zero cost when unused; WithExplainAnalyze — or a PVQL `EXPLAIN [ANALYZE]` prefix — returns
// the plan tree with per-operator row bounds and actual row counts in
// ExecReport.Explain; and the internal/server service exports
// Prometheus metrics on /metrics with opt-in pprof. The README's
// "Observability" section has the trace anatomy, the metric series, an
// EXPLAIN ANALYZE walkthrough, and how to attach a profiler to pvcd.
package pvcagg

import (
	"context"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
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

// ErrUndefined matches (via errors.Is) the step I error of a SUM group
// that holds both +∞ and −∞: a world with both rows has no sum.
var ErrUndefined = value.ErrUndefined

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

// Report describes compilation and evaluation cost of one exact
// computation.
type Report = engine.ExactReport

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
	// ApproxReport describes one anytime computation (convergence,
	// expansion and node counts).
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

// Joint distributions (Section 5) and the AVG composed from them
// (Section 2.2: AVG is composed from SUM and COUNT).
type (
	// JointOutcome is one value tuple of a joint distribution.
	JointOutcome = engine.JointOutcome
	// AvgDist is the exact distribution of an average.
	AvgDist = engine.AvgDist
	// Ratio is an exact rational average outcome.
	Ratio = engine.Ratio
)

// Joint computes the exact joint distribution of several expressions over
// reg, by mutex decomposition on their shared variables, on the exact
// path of Exec. Outcomes are sorted by value tuple.
func Joint(ctx context.Context, es []Expr, reg *Registry, kind SemiringKind) ([]JointOutcome, error) {
	return engine.Joint(ctx, algebra.SemiringFor(kind), reg, es, engine.ExecConfig{})
}

// Average computes the exact distribution of sum/count for the SUM and
// COUNT semimodule expressions of one group, from their joint
// distribution.
func Average(ctx context.Context, sum, count Expr, reg *Registry, kind SemiringKind) (AvgDist, error) {
	return engine.Average(ctx, algebra.SemiringFor(kind), reg, sum, count, engine.ExecConfig{})
}

// Baselines.

// Enumerate computes an exact distribution by possible-worlds enumeration
// (exponential; for validation on small inputs).
func Enumerate(e Expr, reg *Registry, kind SemiringKind) (Dist, error) {
	return worlds.Enumerate(e, reg, algebra.SemiringFor(kind))
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
