package engine

// EXPLAIN / EXPLAIN ANALYZE support: the optimized plan tree annotated
// with estimated vs. actual per-operator cardinalities. ANALYZE wraps
// each operator iterator in a counting decorator, so the counts are
// those of the operators the query ran. ActualRows is -1 on
// estimate-only (EXPLAIN without ANALYZE) trees.

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

// countingIter is the EXPLAIN ANALYZE decorator: it forwards to the
// wrapped iterator, counting Next calls and emitted rows and accumulating
// wall time on its explain node. Step I is single-threaded, so plain
// fields suffice.
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
	return streamEval(ctx, db, plan, true)
}
