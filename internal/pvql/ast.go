package pvql

import "pvcagg/internal/value"

// The AST mirrors the grammar in the package documentation. Every node
// carries byte offsets into the source text so the binder can report
// semantic errors at the exact span.

// ExplainMode says whether the query text carried an EXPLAIN prefix
// and, if so, which variant.
type ExplainMode int

const (
	// ExplainNone is an ordinary query.
	ExplainNone ExplainMode = iota
	// ExplainPlan asks for the optimized plan with each operator's
	// proved row bound, without executing (EXPLAIN ...).
	ExplainPlan
	// ExplainAnalyze asks to execute and report per-operator actual
	// row counts next to the row bounds (EXPLAIN ANALYZE ...).
	ExplainAnalyze
)

// Query is a UNION chain of selects (left-associative).
type Query struct {
	Selects []*SelectStmt // len >= 1
	// Explain records an EXPLAIN / EXPLAIN ANALYZE statement prefix.
	// The prefix only changes how the caller reports the plan; the
	// query itself parses, binds and optimizes identically.
	Explain ExplainMode
}

// Span returns the byte range covered by the query.
func (q *Query) Span() (int, int) {
	first, _ := q.Selects[0].Span()
	_, last := q.Selects[len(q.Selects)-1].Span()
	return first, last
}

// SelectStmt is one SELECT … FROM … [WHERE …] [GROUP BY …] block.
type SelectStmt struct {
	Pos     int // offset of SELECT
	End     int // offset one past the statement
	Star    bool
	StarPos int
	Items   []SelectItem // empty iff Star
	From    []FromItem   // len >= 1; From[i>0].Combine says how it attaches
	Where   []Comparison
	GroupBy []ColumnRef
}

// Span returns the statement's byte range.
func (s *SelectStmt) Span() (int, int) { return s.Pos, s.End }

// SelectItem is one output column: a plain column or an aggregation call,
// optionally renamed with AS.
type SelectItem struct {
	Col      *ColumnRef // exactly one of Col, Agg is set
	Agg      *AggCall
	Alias    string // "" when no AS
	AliasPos int
}

// Span returns the item's byte range (excluding the alias).
func (it SelectItem) Span() (int, int) {
	if it.Agg != nil {
		return it.Agg.Pos, it.Agg.End
	}
	return it.Col.Pos, it.Col.End
}

// AggCall is SUM(c), COUNT(*), AVG(c), … in a select list.
type AggCall struct {
	Fn       string // upper-case: SUM, COUNT, MIN, MAX, PROD, AVG
	Pos, End int
	Star     bool       // COUNT(*)
	Col      *ColumnRef // nil iff Star
}

// Combinator says how a FROM item attaches to the plan built so far.
type Combinator int

const (
	// CombineNone marks the first FROM item.
	CombineNone Combinator = iota
	// CombineProduct is "," — the cross product ×.
	CombineProduct
	// CombineJoin is JOIN — the natural join ⋈.
	CombineJoin
)

// FromItem is one data source: a stored table or a parenthesised
// sub-query, optionally aliased.
type FromItem struct {
	Combine  Combinator
	Table    string // "" when Sub != nil
	Sub      *Query
	Alias    string
	Pos, End int
}

// Comparison is one WHERE conjunct L θ R.
type Comparison struct {
	L, R  Operand
	Th    value.Theta
	ThPos int
}

// Span returns the comparison's byte range.
func (c Comparison) Span() (int, int) {
	l, _ := c.L.Pos, c.L.End
	return l, c.R.End
}

// Operand is a column reference or a literal.
type Operand struct {
	Col      *ColumnRef // set for column operands
	Num      *value.V   // set for numeric literals
	Str      *string    // set for string literals
	Pos, End int
}

// ColumnRef is a possibly qualified column name (tbl.col or col).
type ColumnRef struct {
	Qualifier string // "" when unqualified
	Name      string
	Pos, End  int
}

// String renders the reference as written.
func (c ColumnRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}
