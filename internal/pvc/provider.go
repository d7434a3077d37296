package pvc

import (
	"context"
	"fmt"

	"pvcagg/internal/expr"
	"pvcagg/internal/value"
)

// TupleIter streams the tuples of a provider-backed table. It is the
// storage-side half of the engine's iterator contract: Next returns
// ok=false at end of stream, and Close releases resources, is
// idempotent, and must be safe after an early break.
//
// Lent rows. The Cells slice of a tuple returned by Next is lent: it is
// valid until the next call of Next or Close on the same iterator, which
// may overwrite it in place (a columnar backend fills one row buffer per
// scan instead of allocating a slice per row). Whoever keeps a tuple
// past that point — a hash-join build table, a grouping sink's
// first-seen cells, a result relation, a caller ranging over rows — must
// copy the slice first (Tuple.Clone). Reading it, passing it up a
// pipeline that consumes it before pulling the next row, and copying
// individual Cells out of it need no copy: a Cell, its string and the
// annotation expression are immutable values that never alias a buffer
// the provider reuses (a string cell in particular owns its bytes). The
// engine's π̂ and ⋈/× iterators lend their output rows on the same terms.
type TupleIter interface {
	Next() (t Tuple, ok bool, err error)
	Close() error
}

// BatchIter is a TupleIter that can also hand over its rows a block at
// a time: NextBatch returns the rows Next would return next, up to the
// end of the current storage unit, as a Batch of at least one row
// (ok=false at end of stream). The Batch and its vectors are lent like a
// row, until the next Next, NextBatch or Close; what is read out of them
// is the caller's.
type BatchIter interface {
	TupleIter
	NextBatch() (b *Batch, ok bool, err error)
}

// Batch is a block of rows column-wise: row i of column c is Strs[c][i]
// when Strs[c] is non-nil (a string column) and Vals[c][i] otherwise,
// annotated Anns[i]; Sel names the rows in play.
//
// A string column may also come dictionary-coded: Dicts[c] lists its
// distinct strings in the block's own order and Codes[c][i] is row i's
// index into it, so Strs[c][i] == Dicts[c][Codes[c][i]] for every row.
// Dicts[c] and Codes[c] are nil for a plain column; Dicts and Codes are
// either nil (no column is coded) or hold an entry per column. A
// dictionary is the block's: another batch of the same scan may list
// the same strings in another order, or other strings, so a code means
// nothing outside its batch. Readers that ignore the codes read Strs as
// before.
//
// A value column may also come with a span: Spans[c] = {Base, N} with
// N > 0 promises that every selected row's cell is an integer v with
// uint64(v − Base) < N (the subtraction wrapping), so v − Base is a
// code in [0, N). A span is lent like the vectors, is the batch's alone
// (the next batch may have another Base) and may be loose, covering
// values no row holds; N = 0 means the batch promises nothing. Spans is
// either nil (no column has one) or holds an entry per column.
type Batch struct {
	Vals  [][]value.V
	Strs  [][]string
	Dicts [][]string
	Codes [][]uint8
	Spans []Span
	Anns  []expr.Expr
	Sel   []int32 // ascending
}

// Span is the range of a value column in one batch: see Batch.
type Span struct {
	Base int64
	N    int
}

// Span returns column c's span, N = 0 when the batch gives none.
func (b *Batch) Span(c int) Span {
	if b.Spans == nil {
		return Span{}
	}
	return b.Spans[c]
}

// Coded returns column c's dictionary and codes, or nils for a plain
// column.
func (b *Batch) Coded(c int) ([]string, []uint8) {
	if b.Codes == nil || b.Codes[c] == nil {
		return nil, nil
	}
	return b.Dicts[c], b.Codes[c]
}

// Cell returns row i of column c.
func (b *Batch) Cell(c, i int) Cell {
	if s := b.Strs[c]; s != nil {
		return StringCell(s[i])
	}
	return ValueCell(b.Vals[c][i])
}

// ScanHint is a σ atom pushed down into a provider scan. Columns are
// addressed by position in the provider's schema — positions survive δ
// renames above the scan, names do not. Both operands are constant cells
// (the engine pushes no atom that touches an aggregation column), so the
// atom's truth on a row is Cell.Satisfies and nothing else.
//
// A hint is advisory in one direction only: a provider may ignore it,
// may skip a storage unit (block) it proves holds no matching row, and
// may drop an individual row it has proved fails the hint — but it must
// never drop a row that satisfies every hint. The engine keeps the σ the
// hints came from above the scan and re-applies it to whatever the scan
// returns (σ is idempotent), unless the provider states with
// ExactScanner that its scan filters exactly; then the scan's output is
// σ's, and σ is not evaluated a second time. Either way EXPLAIN shows
// the same plan.
type ScanHint struct {
	// Col is the left operand, an index into the provider's schema.
	Col int
	// Th is the comparison.
	Th value.Theta
	// RightCol is the right operand's schema index when the atom compares
	// two columns; it is -1 when Cell is set.
	RightCol int
	// Cell is the right operand when the atom compares against a
	// constant; nil when RightCol is used.
	Cell *Cell
}

// ScanOptions configures one provider scan.
type ScanOptions struct {
	// Cols selects the columns to materialize, as indices into the
	// provider's schema, in output order. nil means all columns in schema
	// order.
	Cols []int
	// Hints are pushed-down σ atoms, a conjunction (see ScanHint).
	Hints []ScanHint
	// DropZero permits the provider to omit rows (and whole blocks)
	// whose annotation is the constant 0S. Only set when a σ directly
	// above the scan would drop such rows anyway; never sound under
	// grouping operators, where zero-annotated rows still found groups.
	DropZero bool
}

// TableProvider is a pluggable storage backend for one base table: the
// seam through which engine Scans resolve to something other than an
// in-memory Relation (e.g. an on-disk columnar table). Implementations
// must be safe for concurrent scans.
type TableProvider interface {
	// TableName returns the table's name in the database.
	TableName() string
	// Schema returns the table's schema. Callers must not mutate it.
	Schema() Schema
	// Rows returns the table's row count: what a scan without hints or
	// DropZero returns, and so a bound on the rows of any scan.
	Rows() int64
	// NewScan starts a scan. The context bounds the whole scan, not just
	// the call; implementations should check it between storage units.
	// The tuples it returns may have lent Cells (see TupleIter).
	NewScan(ctx context.Context, opts ScanOptions) (TupleIter, error)
}

// ExactScanner is optionally implemented by a TableProvider that can
// state that a scan under hints returns exactly the rows that satisfy
// every hint and, under DropZero, are not annotated with the constant 0S.
// false states nothing: the σ above the scan stays.
type ExactScanner interface {
	ExactHints(hints []ScanHint) bool
}

// AddProvider registers a provider-backed table (replacing any previous
// provider of the same name). A provider is shadowed by an in-memory
// relation of the same name, so Add can locally override storage.
func (db *Database) AddProvider(p TableProvider) {
	name := p.TableName()
	if db.providers == nil {
		db.providers = map[string]TableProvider{}
	}
	if _, ok := db.providers[name]; !ok {
		if _, shadowed := db.rels[name]; !shadowed {
			db.order = append(db.order, name)
		}
	}
	db.providers[name] = p
}

// Provider returns the provider backing the named table, unless an
// in-memory relation of the same name shadows it.
func (db *Database) Provider(name string) (TableProvider, bool) {
	if _, shadowed := db.rels[name]; shadowed {
		return nil, false
	}
	p, ok := db.providers[name]
	return p, ok
}

// Schema returns the schema of the named table, whether it is an
// in-memory relation or provider-backed. Callers must not mutate the
// result; Clone before changing it.
func (db *Database) Schema(name string) (Schema, error) {
	if r, ok := db.rels[name]; ok {
		return r.Schema, nil
	}
	if p, ok := db.providers[name]; ok {
		return p.Schema(), nil
	}
	return nil, fmt.Errorf("pvc: unknown relation %q", name)
}
