package main

import (
	"context"
	"fmt"
	"math"

	"pvcagg"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/worlds"
)

// querySpec is one PVQL op of a query workload: the text, the mode it
// names, and how its answer is checked.
type querySpec struct {
	id   string
	text string
	mode mode
	// ref is the closed-form reference of a group-by template (nil when
	// the template has none).
	ref func(d *refData) map[string]refWant
	// oracle checks result tuples over few variables against brute-force
	// enumeration of their possible worlds.
	oracle bool
}

// queryOps turns specs into ops over an in-memory database (st nil) or a
// store.
func queryOps(specs []querySpec, db *pvc.Database, st *pvcagg.Store) []op {
	ops := make([]op, len(specs))
	for i, q := range specs {
		q := q
		ops[i] = op{
			id:    q.id + " | " + q.mode.String(),
			exact: q.mode.name == "exact" || q.mode.name == "auto",
			run: func(ctx context.Context, _ int) (*answer, error) {
				return runQuery(ctx, db, st, q.text, q.mode, false)
			},
			stage: func(ctx context.Context, _ int, sp *spanCtx) (*answer, error) {
				return stageQuery(ctx, sp, db, st, q.text, q.mode, false, true)
			},
		}
	}
	return ops
}

// oracleTuples and oracleVars bound the possible-worlds check: the first
// oracleTuples result tuples whose expressions mention at most
// oracleVars variables are enumerated (2^16 worlds each at most).
const (
	oracleTuples = 24
	oracleVars   = 16
)

// verifyQueries checks the last pass's answers: group-by templates
// against the closed-form reference, few-variable tuples against the
// possible-worlds oracle, and anytime or sample intervals for
// containment of the exact answer.
func verifyQueries(ctx context.Context, specs []querySpec, last []*answer, ref *refData, exactOf func(ctx context.Context, q querySpec) (*answer, error)) map[int]string {
	bad := map[int]string{}
	for i, q := range specs {
		a := last[i]
		exactMode := q.mode.name == "exact" || q.mode.name == "auto"
		if q.ref != nil && exactMode {
			if msg := checkRef(a.rows, q.ref(ref)); msg != "" {
				bad[i] = "reference: " + msg
				continue
			}
		}
		if q.oracle {
			if msg := checkOracle(a, q.mode); msg != "" {
				bad[i] = "possible worlds: " + msg
				continue
			}
		}
		if q.mode.name == "anytime" || q.mode.name == "sample" {
			ex, err := exactOf(ctx, q)
			if err != nil {
				bad[i] = "exact rerun: " + err.Error()
				continue
			}
			if msg := checkContains(a.rows, ex.rows, q.mode); msg != "" {
				bad[i] = "containment: " + msg
			}
		}
	}
	return bad
}

// slack is how far outside an op's interval the exact confidence may
// lie: nothing for anytime bounds (they are guaranteed), one more
// Hoeffding half-width for sample intervals (they hold at 95% per tuple,
// and the benchmark asks thousands of tuples per run).
func (m mode) slack() float64 {
	if m.name == "sample" {
		lo, hi := worlds.Hoeffding95(0.5, m.samples)
		return (hi - lo) / 2
	}
	return 1e-9
}

// checkContains checks that every interval of got contains the exact
// confidence of the same tuple.
func checkContains(got, exact []row, m mode) string {
	if len(got) != len(exact) {
		return fmt.Sprintf("%d tuples, exact run has %d", len(got), len(exact))
	}
	tol := m.slack()
	for i, r := range got {
		p := exact[i].Lo
		if p < r.Lo-tol || p > r.Hi+tol {
			return fmt.Sprintf("tuple %q: [%v, %v] misses the exact %v", r.Cells, r.Lo, r.Hi, p)
		}
		if m.name == "anytime" && r.Hi-r.Lo > m.eps+1e-9 {
			return fmt.Sprintf("tuple %q: width %v exceeds eps %v", r.Cells, r.Hi-r.Lo, m.eps)
		}
	}
	return ""
}

// checkOracle enumerates the possible worlds of (a prefix of) the step-I
// relation's tuples and compares confidences and aggregate expectations.
func checkOracle(a *answer, m mode) string {
	x, ok := a.extra.(queryExtra)
	if !ok || x.rel == nil {
		return "no step-I relation to enumerate"
	}
	sub := pvc.NewRelation(x.rel.Name, x.rel.Schema)
	var idx []int
	moduleCols := x.rel.Schema.ModuleColumns()
	for i, t := range x.rel.Tuples {
		if len(idx) == oracleTuples {
			break
		}
		n := len(expr.Vars(t.Ann))
		for _, ci := range moduleCols {
			if e, err := t.Cells[ci].ModuleExpr(); err == nil {
				n = max(n, len(expr.Vars(e)))
			}
		}
		if n <= oracleVars {
			sub.Tuples = append(sub.Tuples, t)
			idx = append(idx, i)
		}
	}
	if len(x.rel.Tuples) > 0 && len(idx) == 0 {
		return "no tuple is small enough to enumerate"
	}
	truth, err := worlds.RelationTruth(x.db, sub)
	if err != nil {
		return err.Error()
	}
	tol := m.slack()
	for j, tt := range truth {
		r := a.rows[idx[j]]
		if tt.Confidence < r.Lo-tol || tt.Confidence > r.Hi+tol {
			return fmt.Sprintf("tuple %q: [%v, %v], enumeration gives %v", r.Cells, r.Lo, r.Hi, tt.Confidence)
		}
		for c, d := range tt.AggDists {
			if want := d.Expectation(); math.Abs(r.Aggs[c]-want) > 1e-9*math.Max(1, math.Abs(want)) {
				return fmt.Sprintf("tuple %q: aggregate %d is %v, enumeration gives %v", r.Cells, c, r.Aggs[c], want)
			}
		}
	}
	return ""
}
