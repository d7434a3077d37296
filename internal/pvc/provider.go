package pvc

import (
	"context"
	"fmt"

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
// the provider reuses (a string cell in particular owns its bytes).
type TupleIter interface {
	Next() (t Tuple, ok bool, err error)
	Close() error
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
// hints came from above the scan and re-applies the full predicate to
// whatever the scan returns, so a provider that filters and one that
// does not produce the same result (σ is idempotent), and EXPLAIN shows
// the same plan either way.
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
	// NewScan starts a scan. The context bounds the whole scan, not just
	// the call; implementations should check it between storage units.
	// The tuples it returns may have lent Cells (see TupleIter).
	NewScan(ctx context.Context, opts ScanOptions) (TupleIter, error)
}

// TableStats are persisted base-table statistics a provider can serve
// without scanning.
type TableStats struct {
	Rows     float64
	Distinct map[string]float64 // per column name; module columns absent
}

// StatsProvider is optionally implemented by a TableProvider whose
// backend persists table statistics. ok=false falls back to a full scan.
type StatsProvider interface {
	TableStats() (TableStats, bool)
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
