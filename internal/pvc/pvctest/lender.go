// Package pvctest holds the test double for the pvc.TupleIter lending
// contract: a provider that makes every violation of it visible.
package pvctest

import (
	"context"
	"fmt"

	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
)

// Poison is the string every cell of a row buffer is overwritten with
// once the buffer's loan has ended. A result that contains it was built
// from a tuple kept across a Next or Close without a copy.
const Poison = "☠ lent row read after its loan ended"

// Lender is a pvc.TableProvider over an in-memory relation that uses
// every freedom the scan contracts give a provider, so that a consumer
// relying on more than the contracts promise computes a visibly wrong
// answer: the row buffer a Next lends is poisoned for good by the next
// Next (end of stream included) and by Close; rows that fail a hint are
// dropped, and under DropZero so are rows annotated with the constant
// 0S. It serves no statistics, so the estimator scans it too.
type Lender struct{ rel *pvc.Relation }

// NewLender returns a lender over rel, which it only reads.
func NewLender(rel *pvc.Relation) Lender { return Lender{rel} }

// LendingDatabase returns a database over db's registry and semiring in
// which the named relations of db (all of them when none is named) are
// served by Lenders and the others stay in memory.
func LendingDatabase(db *pvc.Database, names ...string) *pvc.Database {
	lend := map[string]bool{}
	for _, n := range names {
		lend[n] = true
	}
	out := pvc.NewDatabase(db.Kind)
	out.Registry = db.Registry
	for _, name := range db.Names() {
		rel, err := db.Relation(name)
		if err != nil {
			panic(fmt.Sprintf("pvctest: %v", err)) // Names lists relations only
		}
		if len(names) == 0 || lend[name] {
			out.AddProvider(NewLender(rel))
		} else {
			out.Add(rel)
		}
	}
	return out
}

func (l Lender) TableName() string  { return l.rel.Name }
func (l Lender) Schema() pvc.Schema { return l.rel.Schema }

func (l Lender) NewScan(ctx context.Context, opts pvc.ScanOptions) (pvc.TupleIter, error) {
	cols := opts.Cols
	if cols == nil {
		cols = make([]int, len(l.rel.Schema))
		for i := range cols {
			cols[i] = i
		}
	}
	for _, c := range cols {
		if c < 0 || c >= len(l.rel.Schema) {
			return nil, fmt.Errorf("pvctest: %s: column index %d out of range", l.rel.Name, c)
		}
	}
	return &lendIter{ctx: ctx, rel: l.rel, cols: cols, opts: opts}, nil
}

type lendIter struct {
	ctx  context.Context
	rel  *pvc.Relation
	cols []int
	opts pvc.ScanOptions
	i    int
	// lent is the buffer out on loan. Each Next lends a new one, so a
	// buffer whose loan ended holds poison from then on — never a later
	// row, which could pass for an answer.
	lent   []pvc.Cell
	closed bool
}

func (it *lendIter) poison() {
	for i := range it.lent {
		it.lent[i] = pvc.StringCell(Poison)
	}
	it.lent = nil
}

func (it *lendIter) Next() (pvc.Tuple, bool, error) {
	it.poison()
	if it.closed {
		return pvc.Tuple{}, false, fmt.Errorf("pvctest: %s: Next after Close", it.rel.Name)
	}
	if err := it.ctx.Err(); err != nil {
		return pvc.Tuple{}, false, err
	}
	for it.i < len(it.rel.Tuples) {
		t := it.rel.Tuples[it.i]
		it.i++
		if !it.keeps(t) {
			continue
		}
		it.lent = make([]pvc.Cell, len(it.cols))
		for o, c := range it.cols {
			it.lent[o] = t.Cells[c]
		}
		return pvc.Tuple{Cells: it.lent, Ann: t.Ann}, true, nil
	}
	return pvc.Tuple{}, false, nil
}

// keeps reports whether the scan returns t: every row but those the
// options allow it to drop.
func (it *lendIter) keeps(t pvc.Tuple) bool {
	if c, ok := t.Ann.(expr.Const); ok && it.opts.DropZero && c.V.IsZero() {
		return false
	}
	for _, h := range it.opts.Hints {
		right := h.Cell
		if right == nil {
			right = &t.Cells[h.RightCol]
		}
		if !t.Cells[h.Col].Satisfies(h.Th, *right) {
			return false
		}
	}
	return true
}

func (it *lendIter) Close() error {
	it.poison()
	it.closed = true
	return nil
}
