// Package pvc implements pvc-tables (probabilistic value-conditioned
// tables, paper Definition 6): relations whose tuples carry a semiring
// annotation Φ and whose values are constants or semimodule expressions.
// A pvc-database is a set of pvc-tables over one probability space; its
// semantics is the set of possible worlds obtained by valuating the
// variables (paper Section 3).
package pvc

import (
	"fmt"
	"strings"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/value"
)

// CellKind distinguishes the three kinds of tuple values.
type CellKind int

const (
	// KindValue is an integer (or ±∞) constant.
	KindValue CellKind = iota
	// KindString is a string constant (shop names, flags, …).
	KindString
	// KindExpr is a semimodule expression — an aggregation value.
	KindExpr
)

// Cell is one tuple value.
type Cell struct {
	kind CellKind
	v    value.V
	s    string
	e    expr.Expr
}

// ValueCell returns a numeric constant cell.
func ValueCell(v value.V) Cell { return Cell{kind: KindValue, v: v} }

// IntCell returns the integer constant cell n.
func IntCell(n int64) Cell { return ValueCell(value.Int(n)) }

// StringCell returns a string constant cell.
func StringCell(s string) Cell { return Cell{kind: KindString, s: s} }

// ExprCell returns a cell holding the semimodule expression e.
func ExprCell(e expr.Expr) Cell {
	if e.Kind() != expr.KindModule {
		panic(fmt.Sprintf("pvc: ExprCell of non-module expression %s", expr.String(e)))
	}
	return Cell{kind: KindExpr, e: e}
}

// Kind returns the cell's kind.
func (c Cell) Kind() CellKind { return c.kind }

// Value returns the numeric constant; it panics for other kinds.
func (c Cell) Value() value.V {
	if c.kind != KindValue {
		panic("pvc: Value of non-numeric cell")
	}
	return c.v
}

// Str returns the string constant; it panics for other kinds.
func (c Cell) Str() string {
	if c.kind != KindString {
		panic("pvc: Str of non-string cell")
	}
	return c.s
}

// Expr returns the semimodule expression; it panics for other kinds.
func (c Cell) Expr() expr.Expr {
	if c.kind != KindExpr {
		panic("pvc: Expr of non-expression cell")
	}
	return c.e
}

// IsConst reports whether the cell is a constant (numeric or string).
func (c Cell) IsConst() bool { return c.kind != KindExpr }

// ModuleExpr converts an aggregation-column cell into the semimodule
// expression whose distribution is the column's marginal: expression cells
// as-is, numeric cells as monoid constants. String cells error.
func (c Cell) ModuleExpr() (expr.Expr, error) {
	switch c.kind {
	case KindExpr:
		return c.e, nil
	case KindValue:
		return expr.MConst{V: c.v}, nil
	default:
		return nil, fmt.Errorf("pvc: aggregation column holds string cell %s", c)
	}
}

// Key returns a canonical string usable for grouping constant cells; for
// expression cells it is the canonical expression rendering.
func (c Cell) Key() string {
	var a [32]byte
	return string(c.AppendKey(a[:0]))
}

// AppendKey appends the bytes of Key to b. Hash operators build their
// keys into a reused buffer with it and look up m[string(buf)], which
// allocates only when a new key is stored.
func (c Cell) AppendKey(b []byte) []byte {
	switch c.kind {
	case KindValue:
		return c.v.Append(append(b, "v:"...))
	case KindString:
		return append(append(b, "s:"...), c.s...)
	default:
		return append(append(b, "e:"...), expr.String(c.e)...)
	}
}

// String renders the cell for display.
func (c Cell) String() string {
	switch c.kind {
	case KindValue:
		return c.v.String()
	case KindString:
		return c.s
	default:
		return expr.String(c.e)
	}
}

// Equal reports deep equality of two cells.
func (c Cell) Equal(o Cell) bool { return c.Compare(o) == 0 }

// Compare orders two cells of the same kind: numerically for values,
// lexicographically for strings (and for the rendering of expressions).
func (c Cell) Compare(o Cell) int {
	switch {
	case c.kind != o.kind:
		if c.kind < o.kind {
			return -1
		}
		return 1
	case c.kind == KindValue:
		return c.v.Cmp(o.v)
	case c.kind == KindString:
		return strings.Compare(c.s, o.s)
	default:
		return strings.Compare(expr.String(c.e), expr.String(o.e))
	}
}

// Satisfies reports whether c θ o holds under Compare's total order. It
// is the one evaluation of a σ atom over two constant cells: the
// engine's σ and fused ⋈ predicates, the store's zone-map test and its
// in-scan row filter all call it, so a pushed-down hint can never
// disagree with the σ that re-checks it.
func (c Cell) Satisfies(th value.Theta, o Cell) bool { return th.Holds(c.Compare(o)) }

// ColType is the declared type of a column.
type ColType int

const (
	// TValue is a numeric column.
	TValue ColType = iota
	// TString is a string column.
	TString
	// TModule is an aggregation column holding semimodule expressions
	// over the monoid Agg of its Col.
	TModule
)

func (t ColType) String() string {
	switch t {
	case TValue:
		return "value"
	case TString:
		return "string"
	default:
		return "module"
	}
}

// Col is a column declaration.
type Col struct {
	Name string
	Type ColType
	// Agg names the aggregation monoid for TModule columns.
	Agg algebra.Agg
}

// Schema is an ordered list of columns.
type Schema []Col

// Index returns the position of the named column, or −1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// ModuleColumns returns the indices of the TModule (aggregation) columns,
// in schema order.
func (s Schema) ModuleColumns() []int {
	var cols []int
	for i, c := range s {
		if c.Type == TModule {
			cols = append(cols, i)
		}
	}
	return cols
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two schemas have the same columns in order.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// CheckCell verifies that a cell matches the column type.
func (c Col) CheckCell(cell Cell) error {
	switch c.Type {
	case TValue:
		if cell.Kind() != KindValue {
			return fmt.Errorf("pvc: column %s expects a value, got %s", c.Name, cell)
		}
	case TString:
		if cell.Kind() != KindString {
			return fmt.Errorf("pvc: column %s expects a string, got %s", c.Name, cell)
		}
	case TModule:
		if cell.Kind() == KindString {
			return fmt.Errorf("pvc: column %s expects a module expression, got string %s", c.Name, cell)
		}
	}
	return nil
}
