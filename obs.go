package pvcagg

import (
	"pvcagg/internal/engine"
	"pvcagg/internal/obs"
	"pvcagg/internal/pvql"
)

// Observability surface: execution traces (WithTrace), EXPLAIN /
// EXPLAIN ANALYZE plan trees, and the re-exports that let callers
// consume both without importing internal packages. See the README's
// "Observability" section for the trace anatomy and a walkthrough.

// Trace records the nested spans of an execution: parse → bind →
// optimize → eval (step I, with store read counters) → probability
// (step II, with memo/shared-cache/frontier counters). Create one with
// NewTrace, pass it via WithTrace, read it back from ExecReport.Trace
// (the same pointer), render it with Render or marshal it to JSON. A
// Trace may be reused across executions; each Exec appends its own
// top-level spans. All methods are concurrency-safe and nil-safe.
type Trace = obs.Trace

// SpanView is the immutable snapshot of one trace span, as returned by
// Trace.Spans and rendered in JSON.
type SpanView = obs.SpanView

// NewTrace returns an empty execution trace for WithTrace.
func NewTrace() *Trace { return obs.NewTrace() }

// WithTrace records the execution's stages into tr: wall time,
// allocation deltas and stage counters per span. Tracing off (no
// WithTrace) costs nothing on the hot path; tracing on costs a few
// clock reads per stage, not per tuple.
func WithTrace(tr *Trace) Option {
	return func(c *execConfig) { c.trace = tr }
}

// WithExplainAnalyze wraps step I in per-operator counting decorators
// and returns the analyzed plan tree in ExecReport.Explain — the
// programmatic form of the PVQL `EXPLAIN ANALYZE` prefix. The result
// relation is unchanged.
func WithExplainAnalyze() Option {
	return func(c *execConfig) { c.analyze = true }
}

// ExplainNode is one operator of an EXPLAIN / EXPLAIN ANALYZE tree:
// estimated rows next to actual rows (-1 when not executed), per
// operator, plus join build sizes vs. the Estimator's prediction and
// σ-fusion reject counts.
type ExplainNode = engine.ExplainNode

// ExplainMode reports whether a PVQL query text carried an EXPLAIN
// prefix; see ParseQueryExplain.
type ExplainMode = pvql.ExplainMode

const (
	// ExplainNone is an ordinary query.
	ExplainNone = pvql.ExplainNone
	// ExplainPlan is the `EXPLAIN` prefix: return the optimized plan
	// with cardinality estimates, do not execute.
	ExplainPlan = pvql.ExplainPlan
	// ExplainAnalyze is the `EXPLAIN ANALYZE` prefix: execute and
	// report actual row counts next to the estimates.
	ExplainAnalyze = pvql.ExplainAnalyze
)

// Explain returns the estimate-only plan tree for an optimized plan
// without executing it (ActualRows is -1 throughout) — what the PVQL
// `EXPLAIN` prefix reports.
func Explain(db *Database, plan Plan) *ExplainNode {
	return engine.Explain(db, plan)
}
