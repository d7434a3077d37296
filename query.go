package pvcagg

import (
	"context"

	"pvcagg/internal/obs"
	"pvcagg/internal/pvql"
	"pvcagg/internal/pvql/bind"
	"pvcagg/internal/pvql/opt"
)

// This file is the PVQL frontend: declarative queries compile through
// parse → bind → optimize into Q-algebra plans and execute through Exec,
// so every strategy option applies unchanged; under Auto each tuple of
// the *optimized* plan is routed by its own node bound.

// QueryError is a positioned PVQL parse or semantic error: Pos and End
// are byte offsets into the query text, and Render formats the error
// with a caret under the offending span.
type QueryError = pvql.Error

// ParseQuery compiles a PVQL query against a database into an optimized
// Q-algebra plan, and reports the query's EXPLAIN prefix: whether the
// caller asked for `EXPLAIN` (plan + row bounds, no execution) or
// `EXPLAIN ANALYZE` (execute, report actuals next to the bounds). The
// prefix never changes planning. The syntax (see the package
// documentation's "Query language" section, or internal/pvql for the
// full EBNF):
//
//	SELECT shop FROM (
//	  SELECT shop, MAX(price) AS P FROM (
//	    SELECT shop, price FROM S JOIN PS JOIN (SELECT * FROM P1 UNION SELECT * FROM P2)
//	  ) GROUP BY shop
//	) WHERE P <= 50
//
// Errors are *QueryError values pointing at the offending byte span.
func ParseQuery(db *Database, query string) (Plan, ExplainMode, error) {
	return parseQuery(db, query, nil)
}

// parseQuery is parse → bind → optimize, each stage recorded as a span
// of tr (nil-safe: without a trace the span calls are no-ops).
func parseQuery(db *Database, query string, tr *obs.Trace) (Plan, ExplainMode, error) {
	sp := tr.StartSpan("parse")
	q, err := pvql.Parse(query)
	sp.End()
	if err != nil {
		return nil, ExplainNone, err
	}
	sp = tr.StartSpan("bind")
	naive, err := bind.Bind(db, q)
	sp.End()
	if err != nil {
		return nil, ExplainNone, err
	}
	sp = tr.StartSpan("optimize")
	plan := opt.Optimize(naive, db)
	sp.End()
	return plan, q.Explain, nil
}

// ExecQuery is Exec over PVQL text: it parses, binds and optimizes the
// query, then executes the plan under the configured strategy — all Exec
// options (modes, ε, parallelism, budgets, seeds, store, retries,
// tracing) apply unchanged. Auto mode classifies the optimized plan.
//
//	res, err := pvcagg.ExecQuery(ctx, db, "SELECT a, COUNT(*) AS n FROM R GROUP BY a")
//	outs, err := res.Collect()
//
// A query prefixed `EXPLAIN` returns a Result with zero tuples whose
// Report.Explain holds the plan tree with row bounds (nothing
// executes); an `EXPLAIN ANALYZE` prefix executes normally and
// additionally fills Report.Explain with per-operator actual row counts. With WithTrace,
// the frontend stages record parse/bind/optimize spans.
func ExecQuery(ctx context.Context, db *Database, query string, opts ...Option) (*Result, error) {
	// WithStore resolves before the parse: binding needs the store's
	// table schemas.
	cfg, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if db, err = cfg.resolveDB(db); err != nil {
		return nil, err
	}
	plan, mode, err := parseQuery(db, query, cfg.trace)
	if err != nil {
		return nil, err
	}
	switch mode {
	case ExplainPlan:
		res := &Result{Rel: NewRelation("explain", nil), collected: true}
		res.Report.Explain = Explain(db, plan)
		res.Report.Trace = cfg.trace
		return res, nil
	case ExplainAnalyze:
		cfg.analyze = true
	}
	return cfg.exec(ctx, db, plan)
}
