// Package pvctest holds the test double for the pvc.TupleIter lending
// contract: a provider that makes every violation of it visible.
package pvctest

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// Poison is the string every cell of a row buffer is overwritten with
// once the buffer's loan has ended. A result that contains it was built
// from a tuple kept across a Next or Close without a copy.
const Poison = "☠ lent row read after its loan ended"

// batchRows is how many stored rows one batch of a Lender spans, before
// its selection drops any.
const batchRows = 3

// Lender is a pvc.TableProvider over an in-memory relation that uses
// every freedom the scan contracts give a provider, so that a consumer
// relying on more than the contracts promise computes a visibly wrong
// answer. The row buffer a Next lends, and the vectors, annotations and
// selection of a batch a NextBatch lends, are poisoned for good by the
// next Next or NextBatch (end of stream included) and by Close. A scan
// whose columns are all constant serves batches (pvc.BatchIter) of
// batchRows stored rows each. An exact lender drops the rows that fail
// a hint, and under DropZero those annotated with the constant 0S, and
// states so (pvc.ExactScanner); an inexact one returns every row and
// states nothing. A dictionary lender (exact) also codes every string
// column of its batches (pvc.Batch.Coded), listing each batch's strings
// in first-seen order in even batches and in reverse in odd ones, so a
// code names a different string from one batch to the next, and gives
// every value column whose selected rows are integers a span
// (pvc.Batch.Span): tight in even batches, loose in odd ones (its base
// lowered, its size rounded up to a power of two), so an offset names a
// different value from one batch to the next. The dictionaries, codes
// and spans of a batch are poisoned with it; a poisoned span sends every
// value far outside it.
type Lender struct {
	rel   *pvc.Relation
	exact bool
	dict  bool
}

// NewLender returns an exact lender over rel, which it only reads.
func NewLender(rel *pvc.Relation) Lender { return Lender{rel: rel, exact: true} }

// LendingDatabase returns a database over db's registry and semiring in
// which the named relations of db (all of them when none is named) are
// served by exact Lenders and the others stay in memory.
func LendingDatabase(db *pvc.Database, names ...string) *pvc.Database {
	return lendingDatabase(db, Lender{exact: true}, names)
}

// InexactLendingDatabase is LendingDatabase with inexact Lenders.
func InexactLendingDatabase(db *pvc.Database, names ...string) *pvc.Database {
	return lendingDatabase(db, Lender{}, names)
}

// DictLendingDatabase is LendingDatabase with dictionary Lenders.
func DictLendingDatabase(db *pvc.Database, names ...string) *pvc.Database {
	return lendingDatabase(db, Lender{exact: true, dict: true}, names)
}

// lendingDatabase lends the named relations by copies of l.
func lendingDatabase(db *pvc.Database, l Lender, names []string) *pvc.Database {
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
			l.rel = rel
			out.AddProvider(l)
		} else {
			out.Add(rel)
		}
	}
	return out
}

func (l Lender) TableName() string  { return l.rel.Name }
func (l Lender) Schema() pvc.Schema { return l.rel.Schema }
func (l Lender) Rows() int64        { return int64(l.rel.Len()) }

// ExactHints implements pvc.ExactScanner: an exact lender evaluates
// every hint.
func (l Lender) ExactHints([]pvc.ScanHint) bool { return l.exact }

func (l Lender) NewScan(ctx context.Context, opts pvc.ScanOptions) (pvc.TupleIter, error) {
	cols := opts.Cols
	if cols == nil {
		cols = make([]int, len(l.rel.Schema))
		for i := range cols {
			cols[i] = i
		}
	}
	batches := true
	for _, c := range cols {
		if c < 0 || c >= len(l.rel.Schema) {
			return nil, fmt.Errorf("pvctest: %s: column index %d out of range", l.rel.Name, c)
		}
		batches = batches && l.rel.Schema[c].Type != pvc.TModule
	}
	if !l.exact {
		opts = pvc.ScanOptions{}
	}
	it := &lendIter{ctx: ctx, rel: l.rel, cols: cols, opts: opts, dict: l.dict}
	if batches {
		return batchIter{it}, nil
	}
	return it, nil
}

type lendIter struct {
	ctx  context.Context
	rel  *pvc.Relation
	cols []int
	opts pvc.ScanOptions
	dict bool // code the string columns of batches
	i    int
	nb   int // batches lent
	// lent and batch are what is out on loan. Each Next and NextBatch
	// lends new ones, so one whose loan ended holds poison from then on
	// — never a later row, which could pass for an answer.
	lent   []pvc.Cell
	batch  *pvc.Batch
	closed bool
}

func (it *lendIter) poison() {
	for i := range it.lent {
		it.lent[i] = pvc.StringCell(Poison)
	}
	it.lent = nil
	if b := it.batch; b != nil {
		for i := range b.Anns {
			for c := range b.Vals {
				if b.Strs[c] != nil {
					b.Strs[c][i] = Poison
				} else {
					b.Vals[c][i] = value.PosInf()
				}
			}
			b.Anns[i] = expr.V(Poison)
		}
		for c := range b.Codes {
			clear(b.Codes[c])
			for k := range b.Dicts[c] {
				b.Dicts[c][k] = Poison
			}
		}
		for c := range b.Spans {
			b.Spans[c] = pvc.Span{Base: math.MinInt64 / 2, N: 1}
		}
		clear(b.Sel)
		it.batch = nil
	}
}

// start ends the current loan and checks the scan may go on.
func (it *lendIter) start() error {
	it.poison()
	if it.closed {
		return fmt.Errorf("pvctest: %s: read after Close", it.rel.Name)
	}
	return it.ctx.Err()
}

func (it *lendIter) Next() (pvc.Tuple, bool, error) {
	if err := it.start(); err != nil {
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

// batchIter is a lendIter over constant columns, which also lends
// batches.
type batchIter struct{ *lendIter }

// NextBatch implements pvc.BatchIter: the next window of batchRows
// stored rows that keeps a row, every row of it in the vectors and the
// kept ones in the selection.
func (it batchIter) NextBatch() (*pvc.Batch, bool, error) {
	if err := it.start(); err != nil {
		return nil, false, err
	}
	for it.i < len(it.rel.Tuples) {
		b := &pvc.Batch{Vals: make([][]value.V, len(it.cols)), Strs: make([][]string, len(it.cols))}
		for i := int32(0); i < batchRows && it.i < len(it.rel.Tuples); i, it.i = i+1, it.i+1 {
			t := it.rel.Tuples[it.i]
			for o, c := range it.cols {
				if it.rel.Schema[c].Type == pvc.TString {
					b.Strs[o] = append(b.Strs[o], t.Cells[c].Str())
				} else {
					b.Vals[o] = append(b.Vals[o], t.Cells[c].Value())
				}
			}
			if b.Anns = append(b.Anns, t.Ann); it.keeps(t) {
				b.Sel = append(b.Sel, i)
			}
		}
		if len(b.Sel) > 0 {
			if it.dict {
				it.code(b)
			}
			it.nb++
			it.batch = b
			return b, true, nil
		}
	}
	return nil, false, nil
}

// maxSpan bounds the spans a dictionary lender gives: a column whose
// selected rows spread wider gets none.
const maxSpan = 1 << 20

// code dictionary-codes every string column of b, listing its strings
// in first-seen order, reversed in odd batches, and spans every value
// column whose selected rows are integers within maxSpan, tightly in
// even batches and loosely in odd ones.
func (it batchIter) code(b *pvc.Batch) {
	b.Dicts, b.Codes = make([][]string, len(b.Strs)), make([][]uint8, len(b.Strs))
	b.Spans = make([]pvc.Span, len(b.Vals))
	for c, vals := range b.Vals {
		if vals != nil {
			b.Spans[c] = span(vals, b.Sel, it.nb%2 == 1)
		}
	}
	for c, strs := range b.Strs {
		if strs == nil {
			continue
		}
		var dict []string
		for _, s := range strs {
			if !slices.Contains(dict, s) {
				dict = append(dict, s)
			}
		}
		if it.nb%2 == 1 {
			slices.Reverse(dict)
		}
		codes := make([]uint8, len(strs))
		for i, s := range strs {
			codes[i] = uint8(slices.Index(dict, s))
		}
		b.Dicts[c], b.Codes[c] = dict, codes
	}
}

// span returns the span of the rows sel of vals, loose or tight, or N = 0
// when one of them is infinite or they spread past maxSpan.
func span(vals []value.V, sel []int32, loose bool) pvc.Span {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, i := range sel {
		if !vals[i].IsInt() {
			return pvc.Span{}
		}
		lo, hi = min(lo, vals[i].Int64()), max(hi, vals[i].Int64())
	}
	d := uint64(hi) - uint64(lo)
	if d >= maxSpan {
		return pvc.Span{}
	}
	if !loose {
		return pvc.Span{Base: lo, N: int(d) + 1}
	}
	// Lowered by about half the spread, wrapping below math.MinInt64.
	k := d/2 + 1
	return pvc.Span{Base: int64(uint64(lo) - k), N: 1 << bits.Len64(d+k)}
}
