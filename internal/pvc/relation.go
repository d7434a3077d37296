package pvc

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// Tuple is one row of a pvc-table: its cells and its semiring annotation Φ.
// A tuple handed out by a TupleIter may have lent Cells (see TupleIter);
// Clone makes it the holder's own.
type Tuple struct {
	Cells []Cell
	Ann   expr.Expr
}

// Clone returns t with its own copy of Cells. Cells and annotations
// themselves are immutable, so the copy is shallow.
func (t Tuple) Clone() Tuple {
	t.Cells = append([]Cell(nil), t.Cells...)
	return t
}

// Key returns a canonical grouping key over all cells (not the annotation).
func (t Tuple) Key() string {
	var a [64]byte
	return string(t.AppendKey(a[:0]))
}

// AppendKey appends the bytes of Key to b: the cell keys joined by 0x1f.
func (t Tuple) AppendKey(b []byte) []byte {
	for i, c := range t.Cells {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = c.AppendKey(b)
	}
	return b
}

// Label names the tuple in error messages: its value and string cells in
// full, its aggregation expressions abbreviated (expr.Abbrev) — Key spells
// them out, tens of kilobytes per aggregate of a large group.
func (t Tuple) Label() string {
	var b strings.Builder
	b.WriteString("⟨")
	for i, c := range t.Cells {
		if i > 0 {
			b.WriteString(", ")
		}
		if c.kind == KindExpr {
			b.WriteString(expr.Abbrev(c.e))
		} else {
			b.WriteString(c.String())
		}
	}
	b.WriteString("⟩")
	return b.String()
}

// Relation is a pvc-table: a schema and a list of annotated tuples.
type Relation struct {
	Name   string
	Schema Schema
	Tuples []Tuple
	stats  atomic.Pointer[Stats] // see Stats; nil until first asked for
}

// Stats are a relation's optimizer statistics: its row count and the
// number of distinct values of every non-module column. The maps are
// shared between callers and must not be written.
type Stats struct {
	Rows     int
	Distinct map[string]float64
}

// Stats returns the relation's statistics, computing them (one pass over
// every cell) on first use and again whenever the row count has changed
// since; Database.Add forgets them too. They are advisory: code that
// rewrites Tuples in place without changing their number sees stale
// counts until the relation is added again, which can cost the optimizer
// a worse join order or a mis-sized hash table, never a wrong answer.
func (r *Relation) Stats() *Stats {
	if st := r.stats.Load(); st != nil && st.Rows == len(r.Tuples) {
		return st
	}
	st := &Stats{Rows: len(r.Tuples), Distinct: make(map[string]float64, len(r.Schema))}
	for i, col := range r.Schema {
		if col.Type == TModule {
			continue
		}
		seen := map[string]struct{}{}
		for _, t := range r.Tuples {
			seen[t.Cells[i].Key()] = struct{}{}
		}
		st.Distinct[col.Name] = float64(len(seen))
	}
	r.stats.Store(st)
	return st
}

// NewRelation returns an empty pvc-table.
func NewRelation(name string, schema Schema) *Relation {
	return &Relation{Name: name, Schema: schema.Clone()}
}

// Insert appends a tuple after checking it against the schema.
func (r *Relation) Insert(ann expr.Expr, cells ...Cell) error {
	if len(cells) != len(r.Schema) {
		return fmt.Errorf("pvc: %s: %d cells for %d columns", r.Name, len(cells), len(r.Schema))
	}
	for i, c := range cells {
		if err := r.Schema[i].CheckCell(c); err != nil {
			return err
		}
	}
	if ann == nil {
		ann = expr.CInt(1)
	}
	if ann.Kind() != expr.KindSemiring {
		return fmt.Errorf("pvc: %s: annotation %s is not a semiring expression", r.Name, expr.String(ann))
	}
	r.Tuples = append(r.Tuples, Tuple{Cells: cells, Ann: ann})
	return nil
}

// MustInsert is Insert for rows known to match the schema.
func (r *Relation) MustInsert(ann expr.Expr, cells ...Cell) {
	if err := r.Insert(ann, cells...); err != nil {
		panic(err)
	}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Sort orders tuples by their cell keys, making output deterministic.
func (r *Relation) Sort() {
	// Decorate-sort-undecorate: each tuple's key is built once, not at
	// every comparison.
	s := tupleSorter{tuples: r.Tuples, keys: make([]string, len(r.Tuples))}
	for i, t := range r.Tuples {
		s.keys[i] = t.Key()
	}
	sort.Stable(s)
}

type tupleSorter struct {
	tuples []Tuple
	keys   []string
}

func (s tupleSorter) Len() int           { return len(s.tuples) }
func (s tupleSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s tupleSorter) Swap(i, j int) {
	s.tuples[i], s.tuples[j] = s.tuples[j], s.tuples[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// String renders the relation as an aligned text table with the annotation
// column Φ last.
func (r *Relation) String() string {
	header := append(r.Schema.Names(), "Φ")
	rows := make([][]string, 0, len(r.Tuples)+1)
	rows = append(rows, header)
	for _, t := range r.Tuples {
		row := make([]string, 0, len(t.Cells)+1)
		for _, c := range t.Cells {
			row = append(row, c.String())
		}
		row = append(row, expr.String(t.Ann))
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", r.Name)
	for ri, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, " %-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i := range row {
				b.WriteString(" " + strings.Repeat("-", widths[i]))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Database is a pvc-database: named pvc-tables over one probability space.
type Database struct {
	Registry  *vars.Registry
	Kind      algebra.SemiringKind
	rels      map[string]*Relation
	providers map[string]TableProvider
	order     []string
}

// NewDatabase returns an empty database over a fresh registry.
func NewDatabase(kind algebra.SemiringKind) *Database {
	return &Database{Registry: vars.NewRegistry(), Kind: kind, rels: map[string]*Relation{}}
}

// Semiring returns the database's valuation semiring.
func (db *Database) Semiring() algebra.Semiring { return algebra.SemiringFor(db.Kind) }

// Add registers a relation (replacing any previous one of the same name)
// and forgets its cached Stats.
func (db *Database) Add(r *Relation) {
	r.stats.Store(nil)
	if _, ok := db.rels[r.Name]; !ok {
		db.order = append(db.order, r.Name)
	}
	db.rels[r.Name] = r
}

// Relation returns the named relation.
func (db *Database) Relation(name string) (*Relation, error) {
	r, ok := db.rels[name]
	if !ok {
		return nil, fmt.Errorf("pvc: unknown relation %q", name)
	}
	return r, nil
}

// Names lists the relations in insertion order.
func (db *Database) Names() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// InsertIndependent appends a row annotated with a fresh Boolean variable
// of the given marginal probability, making the relation
// tuple-independent (Section 6). It returns the variable name.
func (db *Database) InsertIndependent(rel *Relation, p float64, cells ...Cell) (string, error) {
	x := db.Registry.Fresh(rel.Name+"_t", prob.Bernoulli(p))
	if err := rel.Insert(expr.V(x), cells...); err != nil {
		return "", err
	}
	return x, nil
}

// WorldTuple is a materialised tuple of one possible world: constant cell
// values and the tuple's semiring annotation value (⊤/⊥ under set
// semantics, a multiplicity under bag semantics).
type WorldTuple struct {
	Values []value.V
	Texts  []string // string cells, aligned with schema (empty for values)
	Mult   value.V
}

// World materialises the possible world of rel under valuation nu
// (Definition 6): annotations and cell expressions are evaluated; tuples
// whose annotation is 0S are absent from the world.
func (db *Database) World(rel *Relation, nu expr.Valuation) ([]WorldTuple, error) {
	s := db.Semiring()
	out := make([]WorldTuple, 0, len(rel.Tuples))
	for _, t := range rel.Tuples {
		mult, err := expr.Eval(t.Ann, nu, s)
		if err != nil {
			return nil, err
		}
		if mult == s.Zero() {
			continue
		}
		wt := WorldTuple{Mult: mult, Values: make([]value.V, len(t.Cells)), Texts: make([]string, len(t.Cells))}
		for i, c := range t.Cells {
			switch c.Kind() {
			case KindValue:
				wt.Values[i] = c.Value()
			case KindString:
				wt.Texts[i] = c.Str()
			case KindExpr:
				v, err := expr.Eval(c.Expr(), nu, s)
				if err != nil {
					return nil, err
				}
				wt.Values[i] = v
			}
		}
		out = append(out, wt)
	}
	return out, nil
}
