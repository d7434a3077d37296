package engine

// EXPLAIN / EXPLAIN ANALYZE support: the optimized plan tree annotated
// with estimated vs. actual per-operator cardinalities. Both physical
// paths are covered — the streaming path wraps each operator iterator
// in a counting decorator, the materializing path re-evaluates each
// node over its children's already-computed relations — so an
// estimator misprediction shows up identically wherever the query
// runs. ActualRows is -1 on estimate-only (EXPLAIN without ANALYZE)
// trees.

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"pvcagg/internal/pvc"
)

// ExplainNode is one operator of an explained plan. ActualRows counts
// the tuples the operator emitted (-1 when the plan was not executed);
// Time is the operator's cumulative wall time including its children
// (streaming operators pull through each other, so exclusive times are
// not well defined). BuildRows/EstBuildRows compare a ⋈/× build-side
// materialization against the Estimator's prediction for it, and
// FusedRejects counts pairs a fused σ rejected before allocation.
type ExplainNode struct {
	Op           string         `json:"op"`
	Name         string         `json:"name,omitempty"`
	EstRows      float64        `json:"est_rows"`
	ActualRows   int64          `json:"actual_rows"`
	NextCalls    int64          `json:"next_calls,omitempty"`
	BuildRows    int64          `json:"build_rows,omitempty"`
	EstBuildRows float64        `json:"est_build_rows,omitempty"`
	FusedAtoms   int            `json:"fused_atoms,omitempty"`
	FusedRejects int64          `json:"fused_rejects,omitempty"`
	Time         time.Duration  `json:"-"`
	TimeUS       int64          `json:"time_us"`
	Children     []*ExplainNode `json:"children,omitempty"`
}

// finalize stamps the JSON-visible microsecond times from the
// accumulated durations.
func (n *ExplainNode) finalize() {
	if n == nil {
		return
	}
	n.TimeUS = n.Time.Microseconds()
	for _, c := range n.Children {
		c.finalize()
	}
}

func (n *ExplainNode) label() string {
	if n.Op == "scan" && n.Name != "" {
		return "scan(" + n.Name + ")"
	}
	return n.Op
}

// Render returns an indented text rendering of the explain tree, one
// operator per line with estimated and (when analyzed) actual rows.
func (n *ExplainNode) Render() string {
	var b []byte
	b = n.render(b, 0)
	return string(b)
}

func (n *ExplainNode) render(b []byte, depth int) []byte {
	if n == nil {
		return b
	}
	for range depth {
		b = append(b, "  "...)
	}
	b = append(b, n.label()...)
	b = append(b, "  est="...)
	b = strconv.AppendFloat(b, n.EstRows, 'f', -1, 64)
	if n.ActualRows >= 0 {
		b = append(b, " actual="...)
		b = strconv.AppendInt(b, n.ActualRows, 10)
		b = append(b, " time="...)
		b = append(b, time.Duration(n.TimeUS*int64(time.Microsecond)).String()...)
	}
	if n.BuildRows > 0 || n.EstBuildRows > 0 {
		b = append(b, " build="...)
		b = strconv.AppendInt(b, n.BuildRows, 10)
		b = append(b, " est_build="...)
		b = strconv.AppendFloat(b, n.EstBuildRows, 'f', -1, 64)
	}
	if n.FusedAtoms > 0 {
		b = append(b, " fused_atoms="...)
		b = strconv.AppendInt(b, int64(n.FusedAtoms), 10)
		b = append(b, " fused_rejects="...)
		b = strconv.AppendInt(b, n.FusedRejects, 10)
	}
	b = append(b, '\n')
	for _, c := range n.Children {
		b = c.render(b, depth+1)
	}
	return b
}

// opName maps a plan node to its operator symbol (matching the plan
// String renderings).
func opName(p Plan) string {
	switch p.(type) {
	case *Scan:
		return "scan"
	case *Rename:
		return "δ"
	case *Select:
		return "σ"
	case *Project:
		return "π"
	case *Prune:
		return "π̂"
	case *Product:
		return "×"
	case *Join:
		return "⋈"
	case *Union:
		return "∪"
	case *GroupAgg:
		return "$"
	}
	return fmt.Sprintf("%T", p)
}

// Children returns a plan node's inputs in evaluation order (none for a
// Scan, or for an operator this package does not know).
func Children(p Plan) []Plan {
	switch n := p.(type) {
	case *Rename:
		return []Plan{n.Input}
	case *Select:
		return []Plan{n.Input}
	case *Project:
		return []Plan{n.Input}
	case *Prune:
		return []Plan{n.Input}
	case *GroupAgg:
		return []Plan{n.Input}
	case *Product:
		return []Plan{n.L, n.R}
	case *Join:
		return []Plan{n.L, n.R}
	case *Union:
		return []Plan{n.L, n.R}
	}
	return nil
}

// withChildren shallow-copies a plan node with its inputs replaced.
func withChildren(p Plan, kids []Plan) Plan {
	switch n := p.(type) {
	case *Rename:
		c := *n
		c.Input = kids[0]
		return &c
	case *Select:
		c := *n
		c.Input = kids[0]
		return &c
	case *Project:
		c := *n
		c.Input = kids[0]
		return &c
	case *Prune:
		c := *n
		c.Input = kids[0]
		return &c
	case *GroupAgg:
		c := *n
		c.Input = kids[0]
		return &c
	case *Product:
		c := *n
		c.L, c.R = kids[0], kids[1]
		return &c
	case *Join:
		c := *n
		c.L, c.R = kids[0], kids[1]
		return &c
	case *Union:
		c := *n
		c.L, c.R = kids[0], kids[1]
		return &c
	}
	return p
}

// Explain returns the estimate-only explain tree for a plan without
// executing it: per-operator Estimator cardinalities, ActualRows = -1.
func Explain(db *pvc.Database, plan Plan) *ExplainNode {
	return explainEst(NewEstimator(db), plan)
}

func explainEst(est *Estimator, p Plan) *ExplainNode {
	n := &ExplainNode{Op: opName(p), EstRows: est.Estimate(p).Rows, ActualRows: -1}
	if s, ok := p.(*Scan); ok {
		n.Name = s.Table
	}
	for _, k := range Children(p) {
		n.Children = append(n.Children, explainEst(est, k))
	}
	return n
}

// countingIter is the EXPLAIN ANALYZE decorator for the streaming
// path: it forwards to the wrapped iterator, counting Next calls and
// emitted rows and accumulating wall time on its explain node. Step I
// is single-threaded, so plain fields suffice.
type countingIter struct {
	in Iterator
	n  *ExplainNode
}

func (it *countingIter) Open() error {
	t0 := time.Now()
	err := it.in.Open()
	it.n.Time += time.Since(t0)
	return err
}

func (it *countingIter) Next() (pvc.Tuple, bool, error) {
	t0 := time.Now()
	t, ok, err := it.in.Next()
	it.n.Time += time.Since(t0)
	it.n.NextCalls++
	if ok {
		it.n.ActualRows++
	}
	return t, ok, err
}

func (it *countingIter) Close() error { return it.in.Close() }

// unwrapCounting strips the analyze decorator so builder optimizations
// (σ push-down, π̂ folding) still see the physical iterator beneath.
func unwrapCounting(it Iterator) Iterator {
	if c, ok := it.(*countingIter); ok {
		return c.in
	}
	return it
}

// StreamEvalPlanExplain is StreamEvalPlan with per-operator counting
// decorators; it additionally returns the analyzed explain tree. The
// result relation is bit-for-bit identical to StreamEvalPlan's.
func StreamEvalPlanExplain(ctx context.Context, db *pvc.Database, plan Plan) (*pvc.Relation, time.Duration, *ExplainNode, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, nil, err
	}
	t0 := time.Now()
	b := newIterBuilder(ctx, db)
	b.analyze = true
	it, schema, name, err := b.build(plan)
	if err != nil {
		return nil, 0, nil, err
	}
	defer it.Close()
	if err := it.Open(); err != nil {
		return nil, 0, nil, err
	}
	rel := pvc.NewRelation(name, schema)
	if err := drainRoot(ctx, it, rel); err != nil {
		return nil, 0, nil, err
	}
	root := b.exKids[0]
	root.finalize()
	return rel, time.Since(t0), root, nil
}

// EvalPlanExplain is EvalPlan with per-operator analysis: every plan
// node is evaluated over its children's already-computed relations (a
// relPlan stub returns them verbatim), so per-node output counts and
// times are observable while the overall result stays bit-for-bit
// identical to EvalPlan's.
func EvalPlanExplain(ctx context.Context, db *pvc.Database, plan Plan) (*pvc.Relation, time.Duration, *ExplainNode, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, nil, err
	}
	t0 := time.Now()
	a := &analyzeEvaluator{ctx: ctx, est: NewEstimator(db)}
	rel, root, err := a.eval(db, plan)
	if err != nil {
		return nil, 0, nil, err
	}
	rel.Sort()
	if err := ctx.Err(); err != nil {
		return nil, 0, nil, err
	}
	root.finalize()
	return rel, time.Since(t0), root, nil
}

// relPlan is a Plan whose evaluation returns a pre-computed relation;
// the analyzing evaluator substitutes it for already-evaluated
// children.
type relPlan struct{ rel *pvc.Relation }

func (p *relPlan) Eval(*pvc.Database) (*pvc.Relation, error) { return p.rel, nil }
func (p *relPlan) String() string                            { return p.rel.Name }

type analyzeEvaluator struct {
	ctx context.Context
	est *Estimator
}

func (a *analyzeEvaluator) eval(db *pvc.Database, p Plan) (*pvc.Relation, *ExplainNode, error) {
	if err := a.ctx.Err(); err != nil {
		return nil, nil, err
	}
	kids := Children(p)
	node := &ExplainNode{Op: opName(p), EstRows: a.est.Estimate(p).Rows}
	q := p
	if len(kids) > 0 {
		stubs := make([]Plan, len(kids))
		for i, k := range kids {
			rel, kn, err := a.eval(db, k)
			if err != nil {
				return nil, nil, err
			}
			stubs[i] = &relPlan{rel: rel}
			node.Children = append(node.Children, kn)
		}
		q = withChildren(p, stubs)
	}
	t0 := time.Now()
	rel, err := q.Eval(db)
	node.Time = time.Since(t0)
	// Fold children in so Time is cumulative on both physical paths.
	for _, kn := range node.Children {
		node.Time += kn.Time
	}
	if err != nil {
		return nil, nil, err
	}
	node.ActualRows = int64(len(rel.Tuples))
	node.Name = rel.Name
	return rel, node, nil
}
