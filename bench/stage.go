package main

import (
	"context"
	"fmt"
	"math/rand"

	"pvcagg"
	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/dtree"
	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
	"pvcagg/internal/pvql"
	"pvcagg/internal/pvql/bind"
	"pvcagg/internal/pvql/opt"
	"pvcagg/internal/tractable"
	"pvcagg/internal/vars"
	"pvcagg/internal/worlds"
)

// This file holds the two ways an op over PVQL text is executed: run,
// through the public facade exactly as a user would call it, and stage,
// in which the harness itself calls Parse → Bind → Optimize →
// StreamEvalPlan and then the per-tuple step II (CompileCtx → Evaluate,
// ApproximateCtx, MonteCarloCtx) with a span around each call. The
// staged answer must digest to the facade's; the traced run checks it.

// mode is the strategy an op names; everything else stays at the
// facade's defaults, so a change of defaults shows in the benchmark.
type mode struct {
	name    string  // "auto", "exact", "anytime", "sample" — pvcd's spelling
	eps     float64 // anytime
	samples int     // sample
	seed    int64   // sample
}

var (
	modeAuto  = mode{name: "auto"}
	modeExact = mode{name: "exact"}
)

func (m mode) options() []pvcagg.Option {
	switch m.name {
	case "exact":
		return []pvcagg.Option{pvcagg.WithMode(pvcagg.Exact)}
	case "anytime":
		return []pvcagg.Option{pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(m.eps)}
	case "sample":
		return []pvcagg.Option{pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSamples(m.samples), pvcagg.WithSeed(m.seed)}
	default:
		return nil
	}
}

func (m mode) String() string {
	switch m.name {
	case "anytime":
		return fmt.Sprintf("anytime(eps=%g)", m.eps)
	case "sample":
		return fmt.Sprintf("sample(n=%d,seed=%d)", m.samples, m.seed)
	default:
		return m.name
	}
}

// queryExtra is what a query op hands its verifier.
type queryExtra struct {
	db  *pvc.Database
	rel *pvc.Relation
}

// rowsOf renders tuple outcomes canonically. Aggregation cells are
// expressions over thousands of variables; with allCells false only the
// constant cells are kept (pvcd renders every cell, so the comparison
// with its responses keeps them all).
func rowsOf(outs []engine.TupleOutcome, allCells bool) []row {
	rows := make([]row, len(outs))
	for i, o := range outs {
		r := row{Lo: o.Confidence.Lo, Hi: o.Confidence.Hi}
		for _, c := range o.Tuple.Cells {
			if allCells || c.IsConst() {
				r.Cells = append(r.Cells, c.String())
			}
		}
		for _, d := range o.AggDists {
			r.Aggs = append(r.Aggs, d.Expectation())
		}
		rows[i] = r
	}
	return rows
}

// runQuery is the facade path: ExecQuery + Collect. db is nil when st
// is set.
func runQuery(ctx context.Context, db *pvc.Database, st *pvcagg.Store, text string, m mode, allCells bool) (*answer, error) {
	opts := m.options()
	if st != nil {
		opts = append(opts, pvcagg.WithStore(st))
	}
	res, err := pvcagg.ExecQuery(ctx, db, text, opts...)
	if err != nil {
		return nil, err
	}
	outs, err := res.Collect()
	if err != nil {
		return nil, err
	}
	if st != nil {
		db = st.DB()
	}
	return &answer{rows: rowsOf(outs, allCells), extra: queryExtra{db: db, rel: res.Rel}}, nil
}

// stageQuery is the staged path. With frontEnd false the parse, bind and
// optimize calls run outside any span: pvcd-mixed replays a slot whose
// plan the server took from its plan cache, and the replay needs a plan
// the server never paid for.
func stageQuery(ctx context.Context, sp *spanCtx, db *pvc.Database, st *pvcagg.Store, text string, m mode, allCells, frontEnd bool) (*answer, error) {
	t := sp.t
	if st != nil {
		db = st.DB()
	}
	open := func(name string) *spanCtx {
		if !frontEnd {
			return nil
		}
		return sp.child(name)
	}
	s := open("pvql.parse")
	q, err := pvql.Parse(text)
	s.end()
	if err != nil {
		return nil, err
	}
	s = open("bind.bind")
	naive, err := bind.Bind(db, q)
	s.end()
	if err != nil {
		return nil, err
	}
	s = open("opt.optimize")
	plan := opt.Optimize(naive, db)
	s.end()

	chosen := m
	if m.name == "auto" {
		// Auto routes through the Section 6 tractability analysis.
		s = sp.child("tractable.classify")
		v := tractable.Classify(plan, db)
		s.end()
		if v.Class == tractable.Hard {
			chosen = mode{name: "anytime", eps: pvcagg.DefaultEps}
		} else {
			chosen = modeExact
		}
	}

	var before pvcagg.StoreMetrics
	if st != nil {
		before = st.Metrics()
	}
	s = sp.child("engine.step1")
	rel, _, err := engine.StreamEvalPlan(ctx, db, plan)
	s.end()
	if err != nil {
		return nil, err
	}
	t.count("engine.rows_out", float64(rel.Len()))
	if st != nil {
		after := st.Metrics()
		t.count("store.rows_read", float64(after.RowsRead-before.RowsRead))
		t.count("store.blocks_read", float64(after.BlocksRead-before.BlocksRead))
		t.count("store.blocks_skipped", float64(after.BlocksSkipped-before.BlocksSkipped))
		t.count("store.bytes_read", float64(after.BytesRead-before.BytesRead))
	}

	s = sp.child("engine.step2")
	outs, err := stageStep2(ctx, s, db, rel, chosen)
	s.end()
	if err != nil {
		return nil, err
	}
	return &answer{rows: rowsOf(outs, allCells), extra: queryExtra{db: db, rel: rel}}, nil
}

// tupleSeedStride mirrors engine's per-tuple sampling stream derivation
// (seed + i·stride); the staged digest equals the facade's only while
// the two agree, which the traced run checks.
const tupleSeedStride = 0x9E3779B97F4A7C15

// stageStep2 is the harness's copy of the engine's per-tuple loop, run
// on one goroutine so that spans never overlap.
func stageStep2(ctx context.Context, sp *spanCtx, db *pvc.Database, rel *pvc.Relation, m mode) ([]engine.TupleOutcome, error) {
	sr := db.Semiring()
	moduleCols := rel.Schema.ModuleColumns()
	outs := make([]engine.TupleOutcome, len(rel.Tuples))
	for i, tup := range rel.Tuples {
		o := engine.TupleOutcome{Index: i, Tuple: tup}
		switch m.name {
		case "anytime":
			b, err := stageApprox(ctx, sp, sr, db.Registry, tup.Ann, m.eps)
			if err != nil {
				return nil, err
			}
			o.Confidence = b
		case "sample":
			s := sp.merged("worlds.sample")
			rng := rand.New(rand.NewSource(int64(uint64(m.seed) + uint64(i)*tupleSeedStride)))
			d, err := worlds.MonteCarloCtx(ctx, tup.Ann, db.Registry, sr, m.samples, rng)
			s.end()
			if err != nil {
				return nil, err
			}
			lo, hi := worlds.Hoeffding95(d.TruthProbability(), m.samples)
			o.Confidence = compile.Bounds{Lo: lo, Hi: hi}
		default:
			d, err := stageExact(ctx, sp, sr, db.Registry, tup.Ann)
			if err != nil {
				return nil, err
			}
			o.Confidence = compile.Point(d.TruthProbability())
		}
		for _, ci := range moduleCols {
			e, err := tup.Cells[ci].ModuleExpr()
			if err != nil {
				return nil, err
			}
			d, err := stageExact(ctx, sp, sr, db.Registry, e)
			if err != nil {
				return nil, err
			}
			o.AggDists = append(o.AggDists, d)
		}
		outs[i] = o
	}
	return outs, nil
}

// stageExact is step II for one expression: compile to a d-tree, then
// evaluate it bottom-up.
func stageExact(ctx context.Context, sp *spanCtx, sr algebra.Semiring, reg *vars.Registry, e expr.Expr) (prob.Dist, error) {
	t := sp.t
	s := sp.merged("compile.compile")
	res, err := compile.New(sr, reg, compile.Options{}).CompileCtx(ctx, e)
	s.end()
	if err != nil {
		return prob.Dist{}, err
	}
	t.count("compile.calls", 1)
	t.count("compile.nodes", float64(res.Stats.Nodes))
	t.count("compile.shannon", float64(res.Stats.Shannon))
	t.count("compile.memo_hits", float64(res.Stats.CacheHits))
	s = sp.merged("dtree.eval")
	d, es, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: sr, Registry: reg})
	s.end()
	if err != nil {
		return prob.Dist{}, err
	}
	t.count("dtree.node_evals", float64(es.NodeEvals))
	t.peak("dtree.max_dist_size", float64(es.MaxDistSize))
	return d, nil
}

// stageApprox is the anytime engine on one annotation.
func stageApprox(ctx context.Context, sp *spanCtx, sr algebra.Semiring, reg *vars.Registry, e expr.Expr, eps float64) (compile.Bounds, error) {
	t := sp.t
	s := sp.merged("approx.approximate")
	b, rep, err := compile.ApproximateCtx(ctx, sr, reg, e, compile.ApproxOptions{Eps: eps})
	s.end()
	if err != nil {
		return compile.Bounds{}, err
	}
	t.count("approx.calls", 1)
	t.count("approx.expansions", float64(rep.Expansions))
	if rep.Converged {
		t.count("approx.converged", 1)
	}
	t.count("approx.wasted_nodes", float64(rep.WastedNodes))
	t.count("approx.total_nodes", float64(rep.TotalNodes()))
	return b, nil
}
