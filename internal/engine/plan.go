// Package engine implements the query language Q of the paper's
// Definition 5 — positive relational algebra (δ, σ, π, ×, ⋈, ∪) extended
// with the grouping/aggregation operator $ — together with the rewriting
// ⟦·⟧ of Figure 4 that constructs the semiring annotations and semimodule
// values of every result tuple. Evaluating a plan yields a pvc-table;
// probability computation for its tuples is in probs.go.
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// Plan is a node of a Q-algebra query plan.
type Plan interface {
	// Eval evaluates the plan on db and returns the result pvc-table with
	// annotations constructed per Figure 4.
	Eval(db *pvc.Database) (*pvc.Relation, error)
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

// cellLiteral renders a constant cell so the rendering stays parseable
// (pvql.ParsePlan): string constants are single-quoted with ” escaping,
// distinguishing them from column names; values render bare.
func cellLiteral(c pvc.Cell) string {
	if c.Kind() == pvc.KindString {
		return "'" + strings.ReplaceAll(c.Str(), "'", "''") + "'"
	}
	return c.String()
}

// Eval implementations.

func (p *Scan) Eval(db *pvc.Database) (*pvc.Relation, error) {
	if prov, ok := db.Provider(p.Table); ok {
		return pvc.MaterializeProvider(context.Background(), prov)
	}
	r, err := db.Relation(p.Table)
	if err != nil {
		return nil, err
	}
	return r.Clone(), nil
}

func (p *Rename) Eval(db *pvc.Database) (*pvc.Relation, error) {
	in, err := p.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	i := in.Schema.Index(p.From)
	if i < 0 {
		return nil, fmt.Errorf("engine: δ: unknown column %q in %s", p.From, p.Input)
	}
	if j := in.Schema.Index(p.To); j >= 0 {
		return nil, fmt.Errorf("engine: δ: column %q already exists", p.To)
	}
	// δ touches only the schema: share the tuple storage (tuples and cells
	// are immutable) instead of copying every row.
	out := &pvc.Relation{
		Name:   fmt.Sprintf("δ(%s)", in.Name),
		Schema: in.Schema.Clone(),
		Tuples: in.Tuples,
	}
	out.Schema[i].Name = p.To
	return out, nil
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

func (p *Select) Eval(db *pvc.Database) (*pvc.Relation, error) {
	in, err := p.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	s := db.Semiring()
	atoms, err := resolveSelAtoms(p.Pred, in.Schema)
	if err != nil {
		return nil, err
	}
	out := pvc.NewRelation(fmt.Sprintf("σ(%s)", in.Name), in.Schema)
	for _, t := range in.Tuples {
		ann, keep, err := applySelAtoms(atoms, t, s)
		if err != nil {
			return nil, err
		}
		if !keep {
			continue
		}
		out.Tuples = append(out.Tuples, pvc.Tuple{Cells: t.Cells, Ann: ann})
	}
	return out, nil
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

func (p *Project) Eval(db *pvc.Database) (*pvc.Relation, error) {
	in, err := p.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	s := db.Semiring()
	idx := make([]int, len(p.Cols))
	schema := make(pvc.Schema, len(p.Cols))
	for i, c := range p.Cols {
		j := in.Schema.Index(c)
		if j < 0 {
			return nil, fmt.Errorf("engine: π: unknown column %q", c)
		}
		if in.Schema[j].Type == pvc.TModule {
			return nil, fmt.Errorf("engine: π: column %q is an aggregation attribute (Definition 5 constraint 1)", c)
		}
		idx[i] = j
		schema[i] = in.Schema[j]
	}
	out := pvc.NewRelation(fmt.Sprintf("π(%s)", in.Name), schema)
	groupAnns := map[string][]expr.Expr{}
	groupCells := map[string][]pvc.Cell{}
	var order []string
	for _, t := range in.Tuples {
		cells := make([]pvc.Cell, len(idx))
		for i, j := range idx {
			cells[i] = t.Cells[j]
		}
		key := pvc.Tuple{Cells: cells}.Key()
		if _, ok := groupCells[key]; !ok {
			order = append(order, key)
			groupCells[key] = cells
		}
		groupAnns[key] = append(groupAnns[key], t.Ann)
	}
	for _, key := range order {
		ann := expr.Simplify(expr.Sum(groupAnns[key]...), s)
		out.Tuples = append(out.Tuples, pvc.Tuple{Cells: groupCells[key], Ann: ann})
	}
	return out, nil
}

func (p *Prune) Eval(db *pvc.Database) (*pvc.Relation, error) {
	in, err := p.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(p.Cols))
	schema := make(pvc.Schema, len(p.Cols))
	for i, c := range p.Cols {
		j := in.Schema.Index(c)
		if j < 0 {
			return nil, fmt.Errorf("engine: π̂: unknown column %q", c)
		}
		idx[i] = j
		schema[i] = in.Schema[j]
	}
	out := pvc.NewRelation(fmt.Sprintf("π̂(%s)", in.Name), schema)
	out.Tuples = make([]pvc.Tuple, 0, len(in.Tuples))
	for _, t := range in.Tuples {
		cells := make([]pvc.Cell, len(idx))
		for i, j := range idx {
			cells[i] = t.Cells[j]
		}
		out.Tuples = append(out.Tuples, pvc.Tuple{Cells: cells, Ann: t.Ann})
	}
	return out, nil
}

func (p *Product) Eval(db *pvc.Database) (*pvc.Relation, error) {
	l, err := p.L.Eval(db)
	if err != nil {
		return nil, err
	}
	r, err := p.R.Eval(db)
	if err != nil {
		return nil, err
	}
	for _, c := range r.Schema {
		if l.Schema.Index(c.Name) >= 0 {
			return nil, fmt.Errorf("engine: ×: duplicate column %q (rename first)", c.Name)
		}
	}
	s := db.Semiring()
	schema := append(l.Schema.Clone(), r.Schema.Clone()...)
	out := pvc.NewRelation(fmt.Sprintf("(%s×%s)", l.Name, r.Name), schema)
	for _, lt := range l.Tuples {
		for _, rt := range r.Tuples {
			cells := make([]pvc.Cell, 0, len(lt.Cells)+len(rt.Cells))
			cells = append(cells, lt.Cells...)
			cells = append(cells, rt.Cells...)
			ann := expr.Simplify(expr.Product(lt.Ann, rt.Ann), s)
			out.Tuples = append(out.Tuples, pvc.Tuple{Cells: cells, Ann: ann})
		}
	}
	return out, nil
}

// appendJoinKey appends to buf the composite hash key of the cells at
// idx — cell keys joined by 0x1f, the same encoding Tuple.Key uses. Hash
// operators keep one buffer and look up m[string(buf)], which allocates
// only when a new key is stored.
func appendJoinKey(buf []byte, t pvc.Tuple, idx []int) []byte {
	for i, j := range idx {
		if i > 0 {
			buf = append(buf, 0x1f)
		}
		buf = t.Cells[j].AppendKey(buf)
	}
	return buf
}

func (p *Join) Eval(db *pvc.Database) (*pvc.Relation, error) {
	l, err := p.L.Eval(db)
	if err != nil {
		return nil, err
	}
	r, err := p.R.Eval(db)
	if err != nil {
		return nil, err
	}
	// Shared constant columns are the join keys.
	var shared []string
	for _, c := range l.Schema {
		if j := r.Schema.Index(c.Name); j >= 0 {
			if c.Type == pvc.TModule || r.Schema[j].Type == pvc.TModule {
				return nil, fmt.Errorf("engine: ⋈: aggregation column %q cannot be a join key", c.Name)
			}
			shared = append(shared, c.Name)
		}
	}
	s := db.Semiring()
	schema := l.Schema.Clone()
	var rCols []int
	for j, c := range r.Schema {
		if l.Schema.Index(c.Name) < 0 {
			schema = append(schema, c)
			rCols = append(rCols, j)
		}
	}
	out := pvc.NewRelation(fmt.Sprintf("(%s⋈%s)", l.Name, r.Name), schema)
	// Hash the right side on the join key. Key-column indices are resolved
	// once per side, not once per tuple.
	lKey := make([]int, len(shared))
	rKey := make([]int, len(shared))
	for i, name := range shared {
		lKey[i] = l.Schema.Index(name)
		rKey[i] = r.Schema.Index(name)
	}
	rIdx := map[string][]pvc.Tuple{}
	var key []byte
	for _, rt := range r.Tuples {
		key = appendJoinKey(key[:0], rt, rKey)
		rIdx[string(key)] = append(rIdx[string(key)], rt)
	}
	for _, lt := range l.Tuples {
		key = appendJoinKey(key[:0], lt, lKey)
		for _, rt := range rIdx[string(key)] {
			cells := make([]pvc.Cell, 0, len(lt.Cells)+len(rCols))
			cells = append(cells, lt.Cells...)
			for _, j := range rCols {
				cells = append(cells, rt.Cells[j])
			}
			ann := expr.Simplify(expr.Product(lt.Ann, rt.Ann), s)
			out.Tuples = append(out.Tuples, pvc.Tuple{Cells: cells, Ann: ann})
		}
	}
	return out, nil
}

func (p *Union) Eval(db *pvc.Database) (*pvc.Relation, error) {
	l, err := p.L.Eval(db)
	if err != nil {
		return nil, err
	}
	r, err := p.R.Eval(db)
	if err != nil {
		return nil, err
	}
	if !l.Schema.Equal(r.Schema) {
		return nil, fmt.Errorf("engine: ∪: incompatible schemas %v and %v", l.Schema.Names(), r.Schema.Names())
	}
	for _, c := range l.Schema {
		if c.Type == pvc.TModule {
			return nil, fmt.Errorf("engine: ∪: aggregation column %q (Definition 5 constraint 2)", c.Name)
		}
	}
	s := db.Semiring()
	out := pvc.NewRelation(fmt.Sprintf("(%s∪%s)", l.Name, r.Name), l.Schema)
	groupAnns := map[string][]expr.Expr{}
	groupCells := map[string][]pvc.Cell{}
	var order []string
	// Iterate both sides in place — no need to concatenate into a copy.
	for _, side := range [2][]pvc.Tuple{l.Tuples, r.Tuples} {
		for _, t := range side {
			key := t.Key()
			if _, ok := groupCells[key]; !ok {
				order = append(order, key)
				groupCells[key] = t.Cells
			}
			groupAnns[key] = append(groupAnns[key], t.Ann)
		}
	}
	for _, key := range order {
		ann := expr.Simplify(expr.Sum(groupAnns[key]...), s)
		out.Tuples = append(out.Tuples, pvc.Tuple{Cells: groupCells[key], Ann: ann})
	}
	return out, nil
}

func (p *GroupAgg) Eval(db *pvc.Database) (*pvc.Relation, error) {
	in, err := p.Input.Eval(db)
	if err != nil {
		return nil, err
	}
	s := db.Semiring()
	// Resolve columns.
	gIdx := make([]int, len(p.GroupBy))
	for i, g := range p.GroupBy {
		j := in.Schema.Index(g)
		if j < 0 {
			return nil, fmt.Errorf("engine: $: unknown group-by column %q", g)
		}
		if in.Schema[j].Type == pvc.TModule {
			return nil, fmt.Errorf("engine: $: group-by column %q is an aggregation attribute", g)
		}
		gIdx[i] = j
	}
	type aggCol struct {
		spec AggSpec
		idx  int
	}
	aggs := make([]aggCol, len(p.Aggs))
	for i, a := range p.Aggs {
		idx := -1
		if a.Agg != algebra.Count {
			idx = in.Schema.Index(a.Over)
			if idx < 0 {
				return nil, fmt.Errorf("engine: $: unknown aggregation column %q", a.Over)
			}
			if in.Schema[idx].Type != pvc.TValue {
				return nil, fmt.Errorf("engine: $: aggregation over non-value column %q", a.Over)
			}
		}
		aggs[i] = aggCol{a, idx}
	}
	schema := make(pvc.Schema, 0, len(gIdx)+len(aggs))
	for _, j := range gIdx {
		schema = append(schema, in.Schema[j])
	}
	for _, a := range aggs {
		schema = append(schema, pvc.Col{Name: a.spec.Out, Type: pvc.TModule, Agg: a.spec.Agg})
	}
	out := pvc.NewRelation(fmt.Sprintf("$(%s)", in.Name), schema)

	type group struct {
		cells []pvc.Cell
		rows  []pvc.Tuple
	}
	groups := map[string]*group{}
	var order []string
	for _, t := range in.Tuples {
		cells := make([]pvc.Cell, len(gIdx))
		for i, j := range gIdx {
			cells[i] = t.Cells[j]
		}
		key := pvc.Tuple{Cells: cells}.Key()
		g, ok := groups[key]
		if !ok {
			g = &group{cells: cells}
			groups[key] = g
			order = append(order, key)
		}
		g.rows = append(g.rows, t)
	}
	// Figure 4: without grouping, the result is one tuple (neutral values
	// on empty input) annotated 1K.
	if len(p.GroupBy) == 0 && len(order) == 0 {
		order = append(order, "")
		groups[""] = &group{}
	}
	sort.Strings(order)
	for _, key := range order {
		g := groups[key]
		cells := make([]pvc.Cell, 0, len(g.cells)+len(aggs))
		cells = append(cells, g.cells...)
		for _, a := range aggs {
			monoidAgg := a.spec.Agg
			terms := make([]expr.Expr, 0, len(g.rows))
			for _, row := range g.rows {
				var mv value.V
				if a.spec.Agg == algebra.Count {
					mv = value.Int(1)
				} else {
					c := row.Cells[a.idx]
					if c.Kind() != pvc.KindValue {
						return nil, fmt.Errorf("engine: $: aggregated cell %s is not a constant", c)
					}
					mv = c.Value()
				}
				terms = append(terms, expr.Scale(monoidAgg, row.Ann, mv))
			}
			var agg expr.Expr
			if len(terms) == 0 {
				agg = expr.MConst{V: algebra.MonoidFor(monoidAgg).Neutral()}
			} else {
				agg = expr.Simplify(expr.MSum(monoidAgg, terms...), s)
			}
			cells = append(cells, pvc.ExprCell(agg))
		}
		var ann expr.Expr = expr.CInt(1)
		if len(p.GroupBy) > 0 {
			anns := make([]expr.Expr, len(g.rows))
			for i, row := range g.rows {
				anns[i] = row.Ann
			}
			ann = expr.Simplify(
				expr.Compare(value.NE, expr.Sum(anns...), expr.CInt(0)), s)
		}
		out.Tuples = append(out.Tuples, pvc.Tuple{Cells: cells, Ann: ann})
	}
	return out, nil
}
