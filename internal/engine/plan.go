// Package engine implements the query language Q of the paper's
// Definition 5 — positive relational algebra (δ, σ, π, ×, ⋈, ∪) extended
// with the grouping/aggregation operator $ — together with the rewriting
// ⟦·⟧ of Figure 4 that constructs the semiring annotations and semimodule
// values of every result tuple. The iterators of iter.go evaluate a plan
// to a pvc-table (step I); exec.go computes the probabilities of its
// tuples (step II).
package engine

import (
	"fmt"
	"strings"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// Plan is a node of a Q-algebra query plan.
type Plan interface {
	// String renders the plan as an algebra expression.
	String() string
}

// Scan reads a stored relation.
type Scan struct{ Table string }

// Rename renames column From to To (the paper's δ).
type Rename struct {
	Input    Plan
	From, To string
}

// Select filters by a conjunction of comparison atoms (σ). Comparisons on
// constant columns filter tuples; comparisons involving aggregation
// columns multiply the annotation with a conditional expression
// (Figure 4: Φ ·K [A θ B]).
type Select struct {
	Input Plan
	Pred  Pred
}

// Project projects onto the named constant columns (π), summing the
// annotations of collapsing tuples.
type Project struct {
	Input Plan
	Cols  []string
}

// Prune keeps only the named columns, in the given order, WITHOUT
// collapsing duplicate tuples (π̂). Unlike the paper's π it never sums
// annotations — every input tuple survives with its annotation untouched
// — so it is always probability-preserving and the optimizer inserts it
// freely to drop dead columns early. It may keep aggregation columns.
type Prune struct {
	Input Plan
	Cols  []string
}

// Product is the cross product (×); column names must be disjoint.
type Product struct{ L, R Plan }

// Join is the natural join on the shared constant columns — the π σ ×
// combination the paper's queries use, provided as one operator.
type Join struct{ L, R Plan }

// Union is the (bag) union of two schema-compatible inputs, summing
// annotations of identical tuples.
type Union struct{ L, R Plan }

// AggSpec is one aggregation of the $ operator: Out is the new column,
// Agg the monoid, Over the aggregated input column (ignored for COUNT).
type AggSpec struct {
	Out  string
	Agg  algebra.Agg
	Over string
}

// GroupAgg is the paper's $ operator: group by the named constant columns
// and aggregate per group. With an empty GroupBy the result is a single
// tuple annotated 1K; with grouping, each group tuple is annotated with
// the non-emptiness condition [ΣK Φ ≠ 0K] (Figure 4).
type GroupAgg struct {
	Input   Plan
	GroupBy []string
	Aggs    []AggSpec
}

func (p *Scan) String() string { return p.Table }
func (p *Rename) String() string {
	return fmt.Sprintf("δ[%s←%s](%s)", p.To, p.From, p.Input)
}
func (p *Select) String() string { return fmt.Sprintf("σ[%s](%s)", p.Pred, p.Input) }
func (p *Project) String() string {
	return fmt.Sprintf("π[%s](%s)", strings.Join(p.Cols, ","), p.Input)
}
func (p *Prune) String() string {
	return fmt.Sprintf("π̂[%s](%s)", strings.Join(p.Cols, ","), p.Input)
}
func (p *Product) String() string { return fmt.Sprintf("(%s × %s)", p.L, p.R) }
func (p *Join) String() string    { return fmt.Sprintf("(%s ⋈ %s)", p.L, p.R) }
func (p *Union) String() string   { return fmt.Sprintf("(%s ∪ %s)", p.L, p.R) }
func (p *GroupAgg) String() string {
	specs := make([]string, len(p.Aggs))
	for i, a := range p.Aggs {
		specs[i] = fmt.Sprintf("%s←%s(%s)", a.Out, a.Agg, a.Over)
	}
	return fmt.Sprintf("$[%s;%s](%s)", strings.Join(p.GroupBy, ","), strings.Join(specs, ","), p.Input)
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

// MapChildren returns p rebuilt over f applied to each of its inputs, in
// Children order, so a rewrite that treats an operator like any other
// recurses without naming it. A Scan, or an operator this package does
// not know, is returned as is.
func MapChildren(p Plan, f func(Plan) Plan) Plan {
	switch n := p.(type) {
	case *Rename:
		return &Rename{Input: f(n.Input), From: n.From, To: n.To}
	case *Select:
		return &Select{Input: f(n.Input), Pred: n.Pred}
	case *Project:
		return &Project{Input: f(n.Input), Cols: n.Cols}
	case *Prune:
		return &Prune{Input: f(n.Input), Cols: n.Cols}
	case *GroupAgg:
		return &GroupAgg{Input: f(n.Input), GroupBy: n.GroupBy, Aggs: n.Aggs}
	case *Product:
		return &Product{L: f(n.L), R: f(n.R)}
	case *Join:
		return &Join{L: f(n.L), R: f(n.R)}
	case *Union:
		return &Union{L: f(n.L), R: f(n.R)}
	}
	return p
}

// Pred is a conjunction of comparison atoms.
type Pred struct{ Atoms []Atom }

// Atom is one comparison: Left θ Right, where Left is a column and Right
// is a column or a constant cell.
type Atom struct {
	Left     string
	Th       value.Theta
	RightCol string    // set when comparing two columns
	RightVal *pvc.Cell // set when comparing against a constant
}

// Where starts a predicate from atoms.
func Where(atoms ...Atom) Pred { return Pred{Atoms: atoms} }

// ColEqCol builds A = B.
func ColEqCol(a, b string) Atom { return Atom{Left: a, Th: value.EQ, RightCol: b} }

// ColTheta builds A θ constant.
func ColTheta(a string, th value.Theta, c pvc.Cell) Atom {
	return Atom{Left: a, Th: th, RightVal: &c}
}

// ColThetaCol builds A θ B.
func ColThetaCol(a string, th value.Theta, b string) Atom {
	return Atom{Left: a, Th: th, RightCol: b}
}

func (p Pred) String() string {
	parts := make([]string, len(p.Atoms))
	for i, a := range p.Atoms {
		if a.RightVal != nil {
			parts[i] = fmt.Sprintf("%s%s%s", a.Left, a.Th, cellLiteral(*a.RightVal))
		} else {
			parts[i] = fmt.Sprintf("%s%s%s", a.Left, a.Th, a.RightCol)
		}
	}
	return strings.Join(parts, "∧")
}

// cellLiteral renders a constant cell for display: string constants are
// single-quoted, an embedded quote doubled, so σ[a='b'] compares with a
// constant and σ[a=b] with a column; values render bare.
func cellLiteral(c pvc.Cell) string {
	if c.Kind() == pvc.KindString {
		return "'" + strings.ReplaceAll(c.Str(), "'", "''") + "'"
	}
	return c.String()
}

// selAtom is one σ comparison with its column references resolved to
// cell indices — resolved once per evaluation, not once per tuple, so an
// unknown column errors even over an empty input.
type selAtom struct {
	li int
	th value.Theta
	ri int       // right column index; -1 when comparing against a constant
	rv *pvc.Cell // right constant; nil when comparing against a column
}

// resolveSelAtoms resolves a σ predicate against the input schema.
func resolveSelAtoms(pred Pred, schema pvc.Schema) ([]selAtom, error) {
	atoms := make([]selAtom, len(pred.Atoms))
	for i, a := range pred.Atoms {
		li := schema.Index(a.Left)
		if li < 0 {
			return nil, fmt.Errorf("engine: σ: unknown column %q", a.Left)
		}
		ri := -1
		if a.RightVal == nil {
			ri = schema.Index(a.RightCol)
			if ri < 0 {
				return nil, fmt.Errorf("engine: σ: unknown column %q", a.RightCol)
			}
		}
		atoms[i] = selAtom{li: li, th: a.Th, ri: ri, rv: a.RightVal}
	}
	return atoms, nil
}

// applySelAtoms applies resolved σ atoms to one tuple: comparisons of
// constant cells filter, comparisons involving an aggregation value
// multiply the annotation with the condition (Figure 4: Φ ·K [A θ B]).
// The returned annotation is valid only when keep is true; a tuple whose
// annotation simplifies to the semiring zero is dropped too (the
// condition is unsatisfiable in every world).
func applySelAtoms(atoms []selAtom, t pvc.Tuple, s algebra.Semiring) (ann expr.Expr, keep bool, err error) {
	ann = t.Ann
	for _, a := range atoms {
		var right pvc.Cell
		if a.rv != nil {
			right = *a.rv
		} else {
			right = t.Cells[a.ri]
		}
		left := t.Cells[a.li]
		if left.IsConst() && right.IsConst() {
			if !left.Satisfies(a.th, right) {
				return nil, false, nil
			}
			continue
		}
		cond, err := comparisonExpr(left, a.th, right)
		if err != nil {
			return nil, false, err
		}
		ann = expr.Simplify(expr.Product(ann, cond), s)
	}
	if c, ok := ann.(expr.Const); ok && c.V == s.Zero() {
		return nil, false, nil
	}
	return ann, true, nil
}

// comparisonExpr builds [A θ B] for cells of which at least one holds a
// semimodule expression.
func comparisonExpr(l pvc.Cell, th value.Theta, r pvc.Cell) (expr.Expr, error) {
	toModule := func(c pvc.Cell) (expr.Expr, error) {
		switch c.Kind() {
		case pvc.KindExpr:
			return c.Expr(), nil
		case pvc.KindValue:
			return expr.MConst{V: c.Value()}, nil
		default:
			return nil, fmt.Errorf("engine: σ: cannot compare string cell %s with an aggregation value", c)
		}
	}
	le, err := toModule(l)
	if err != nil {
		return nil, err
	}
	re, err := toModule(r)
	if err != nil {
		return nil, err
	}
	return expr.Compare(th, le, re), nil
}
