package engine

// EXPLAIN / EXPLAIN ANALYZE support: the optimized plan tree annotated
// with each operator's proved row bound (RowBound) and, under ANALYZE,
// its actual rows. ANALYZE wraps each operator iterator in a counting
// decorator, so the counts are those of the operators the query ran.
// ActualRows is -1 on unexecuted (EXPLAIN without ANALYZE) trees.

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"pvcagg/internal/pvc"
)

// ExplainNode is one operator of an explained plan; EXPLAIN and EXPLAIN
// ANALYZE of one plan draw the same tree, one node per plan operator.
// ActualRows counts the tuples the operator emitted (-1 when the plan
// was not executed); Time is the operator's cumulative wall time
// including its children (streaming operators pull through each other,
// so exclusive times are not well defined). BuildRows counts the rows
// a ⋈/× materialized as its build side.
type ExplainNode struct {
	Op         string         `json:"op"`
	Name       string         `json:"name,omitempty"`
	RowsBound  int64          `json:"rows_bound"`
	ActualRows int64          `json:"actual_rows"`
	NextCalls  int64          `json:"next_calls,omitempty"`
	BuildRows  int64          `json:"build_rows,omitempty"`
	Time       time.Duration  `json:"-"`
	TimeUS     int64          `json:"time_us"`
	Children   []*ExplainNode `json:"children,omitempty"`
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
// operator per line with its row bound and (when analyzed) actual rows.
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
	b = append(b, "  rows≤"...)
	b = strconv.AppendInt(b, n.RowsBound, 10)
	if n.ActualRows >= 0 {
		b = append(b, " actual="...)
		b = strconv.AppendInt(b, n.ActualRows, 10)
		b = append(b, " time="...)
		b = append(b, time.Duration(n.TimeUS*int64(time.Microsecond)).String()...)
	}
	if n.BuildRows > 0 {
		b = append(b, " build="...)
		b = strconv.AppendInt(b, n.BuildRows, 10)
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

// Explain returns the explain tree for a plan without executing it:
// per-operator row bounds, ActualRows = -1.
func Explain(db *pvc.Database, p Plan) *ExplainNode {
	n := &ExplainNode{Op: opName(p), RowsBound: RowBound(p, db), ActualRows: -1}
	if s, ok := p.(*Scan); ok {
		n.Name = s.Table
	}
	for _, k := range Children(p) {
		n.Children = append(n.Children, Explain(db, k))
	}
	return n
}

// countingIter is the EXPLAIN ANALYZE decorator: it forwards to the
// wrapped iterator, counting Next calls and emitted rows and accumulating
// wall time on its explain node. Step I's operators run on one
// goroutine, so plain fields suffice. A store scan that reads ahead
// decodes on a helper goroutine, so a scan node's time= is the
// consumer's wait — its reads, the blocks it decodes itself and its
// waits for the helper — not the helper's decoding.
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

func (it *countingIter) batches() bool {
	b, ok := it.in.(batcher)
	return ok && b.batches()
}

// nextBatch forwards a batch, counting its selected rows as emitted.
func (it *countingIter) nextBatch() (*pvc.Batch, bool, error) {
	t0 := time.Now()
	b, ok, err := it.in.(batcher).nextBatch()
	it.n.Time += time.Since(t0)
	it.n.NextCalls++
	if ok {
		it.n.ActualRows += int64(len(b.Sel))
	}
	return b, ok, err
}

func (it *countingIter) Close() error { return it.in.Close() }

// unwrapCounting strips every analyze decorator (δ, a folded π̂ and a
// discharged σ each add one around the same scan), so builder
// optimizations see the physical iterator beneath, as without ANALYZE.
func unwrapCounting(it Iterator) Iterator {
	if c, ok := it.(*countingIter); ok {
		return unwrapCounting(c.in)
	}
	return it
}

// StreamEvalPlanExplain is StreamEvalPlan with per-operator counting
// decorators; it additionally returns the analyzed explain tree. The
// result relation is bit-for-bit identical to StreamEvalPlan's.
func StreamEvalPlanExplain(ctx context.Context, db *pvc.Database, plan Plan) (*pvc.Relation, time.Duration, *ExplainNode, error) {
	return streamEval(ctx, db, plan, true)
}
