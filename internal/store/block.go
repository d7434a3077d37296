package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// annOneExpr is the annotation every annOne record decodes to: one boxed
// constant shared by all rows of all scans (expressions are immutable).
var annOneExpr expr.Expr = expr.CInt(1)

// blockVecs is one block decoded column-wise: a pvc.Batch over the
// schema's columns — a typed vector per needed column (Vals for TValue,
// Strs for TString, nil until needed), the annotation vector, and the
// selection vector naming the rows still in play. It is a table's scan
// scratch: a scan borrows one, or two when it reads ahead, from its
// table's free list (Table.borrow), decodes its blocks into them and
// returns them at Close, so after a table's first query neither a block
// nor a scan costs an allocation of block size. The one raw buffer a
// scan reads into travels with the scratch it lends. Nothing a scan
// hands out aliases a scratch, so a later scan may overwrite it while
// rows of an earlier one are still held: a cell copies its value.V,
// string vectors own their bytes (reader.string and the dictionary
// decoder copy them out of raw), and annotations are the store's shared
// boxed expressions. The row buffer a scan lends is the scan's own and
// is never pooled.
//
// A dictionary-coded string column (format.go) also sets the Batch's
// Dicts and Codes entries; they are nil for a plain column. Their
// storage stays in dicts and codes while a column's blocks are plain,
// and a dictionary entry equal to the one it replaces keeps its string,
// so blocks that list the same strings allocate nothing.
type blockVecs struct {
	pvc.Batch
	schema pvc.Schema
	raw    []byte     // the scan's read buffer while this scratch is its blk
	need   []bool     // by schema column: decode it
	dicts  [][]string // by schema column: the last dictionary decoded
	codes  [][]uint8  // by schema column: the last codes decoded
}

// newBlockVecs sizes the column table for schema; reset readies it for
// a scan.
func newBlockVecs(schema pvc.Schema) *blockVecs {
	n := len(schema)
	return &blockVecs{
		Batch: pvc.Batch{Vals: make([][]value.V, n), Strs: make([][]string, n),
			Dicts: make([][]string, n), Codes: make([][]uint8, n)},
		schema: schema,
		need:   make([]bool, n),
		dicts:  make([][]string, n),
		codes:  make([][]uint8, n),
	}
}

// reset readies the scratch for a scan that outputs cols and filters on
// hints (a hint may name a column the scan does not output): it decodes
// exactly those columns and holds no row. Vectors of columns an earlier
// scan decoded keep their storage but are never read.
func (b *blockVecs) reset(cols []int, hints []pvc.ScanHint) {
	clear(b.need)
	for _, c := range cols {
		b.need[c] = true
	}
	for _, h := range hints {
		if filterable(b.schema, h) {
			b.need[h.Col] = true
			if h.Cell == nil {
				b.need[h.RightCol] = true
			}
		}
	}
	b.Sel = b.Sel[:0]
}

// filterable reports whether h can be evaluated row by row over schema:
// its columns exist and its right operand is a column or a constant
// cell. Any other hint is ignored, as the contract allows.
func filterable(schema pvc.Schema, h pvc.ScanHint) bool {
	if h.Col < 0 || h.Col >= len(schema) {
		return false
	}
	if h.Cell != nil {
		return h.Cell.IsConst()
	}
	return h.RightCol >= 0 && h.RightCol < len(schema)
}

// decode verifies one raw block (magic, CRC, row and column counts,
// segment bounds) and decodes its needed columns and annotations into
// the vectors, leaving in Sel every row — or, under dropZero, every row
// whose annotation is not the constant 0S. wantRows is the row count the
// block index recorded; vectors are sized by it only after the block's
// own header agrees and the block is long enough to hold that many
// annotation records. On error Sel is empty: no row of this block or of
// the block decoded before it is visible.
func (b *blockVecs) decode(buf []byte, wantRows int, vars []expr.Expr, dropZero bool) error {
	b.Sel = b.Sel[:0]
	if len(buf) < minBlockLen || string(buf[:len(blockMagic)]) != blockMagic {
		return errors.New("bad magic")
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return errors.New("checksum mismatch")
	}
	r := &reader{buf: body, pos: len(blockMagic)}
	nrows, err := r.uvarint()
	if err != nil {
		return err
	}
	if wantRows < 0 || nrows != uint64(wantRows) {
		return fmt.Errorf("row count %d does not match index entry %d", nrows, wantRows)
	}
	if nrows > uint64(len(body)) {
		return fmt.Errorf("row count %d exceeds block length %d", nrows, len(body))
	}
	ncols, err := r.uvarint()
	if err != nil {
		return err
	}
	if ncols != uint64(len(b.schema)) {
		return fmt.Errorf("column count %d does not match schema arity %d", ncols, len(b.schema))
	}
	n := int(nrows)
	for ci, col := range b.schema {
		seg, err := r.segment()
		if err != nil {
			return err
		}
		if !b.need[ci] {
			continue
		}
		sr := &reader{buf: seg}
		if col.Type == pvc.TValue {
			vals := grow(b.Vals[ci], n)
			b.Vals[ci] = vals
			for i := range vals {
				if vals[i], err = sr.value(); err != nil {
					return fmt.Errorf("column %s: %v", col.Name, err)
				}
			}
		} else if err := b.decodeStrings(ci, sr, n); err != nil {
			return fmt.Errorf("column %s: %v", col.Name, err)
		}
	}
	seg, err := r.segment()
	if err != nil {
		return err
	}
	sr := &reader{buf: seg}
	b.Anns = grow(b.Anns, n)
	b.Sel = grow(b.Sel, n)[:0]
	for i := range b.Anns {
		ann, err := sr.ann(vars)
		if err != nil {
			b.Sel = b.Sel[:0]
			return fmt.Errorf("annotation: %v", err)
		}
		b.Anns[i] = ann
		if dropZero {
			if _, zero := annClass(ann); zero {
				continue
			}
		}
		b.Sel = append(b.Sel, int32(i))
	}
	return nil
}

// decodeStrings decodes string column ci of an n-row block from its
// segment: plain, each row's string copied out of the segment, or
// dictionary-coded, each row's string the dictionary's. A dictionary of
// more than maxDict entries or more than n, a code past its end and a
// short run of codes are errors; nothing is sized by the dictionary's
// count before it is checked.
func (b *blockVecs) decodeStrings(ci int, sr *reader, n int) error {
	strs := grow(b.Strs[ci], n)
	b.Strs[ci], b.Dicts[ci], b.Codes[ci] = strs, nil, nil
	enc, err := sr.byte()
	if err != nil {
		return err
	}
	switch enc {
	case strPlain:
		for i := range strs {
			if strs[i], err = sr.string(); err != nil {
				return err
			}
		}
		return nil
	case strDict:
	default:
		return fmt.Errorf("bad string encoding %d", enc)
	}
	k, err := sr.uvarint()
	if err != nil {
		return err
	}
	if k > maxDict || k > uint64(n) {
		return fmt.Errorf("dictionary of %d entries for %d rows", k, n)
	}
	dict := grow(b.dicts[ci], int(k))
	b.dicts[ci] = dict
	for j := range dict {
		m, err := sr.uvarint()
		if err != nil {
			return err
		}
		s, err := sr.bytes(m)
		if err != nil {
			return err
		}
		if dict[j] != string(s) {
			dict[j] = string(s)
		}
	}
	raw, err := sr.bytes(uint64(n))
	if err != nil {
		return fmt.Errorf("codes: %v", err)
	}
	codes := grow(b.codes[ci], n)
	b.codes[ci] = codes
	copy(codes, raw)
	for i, c := range codes {
		if int(c) >= len(dict) {
			return fmt.Errorf("code %d at row %d past a dictionary of %d", c, i, len(dict))
		}
		strs[i] = dict[c]
	}
	b.Dicts[ci], b.Codes[ci] = dict, codes
	return nil
}

// filter drops from Sel the rows that fail a hint, one hint (one pass
// over the operand vectors) at a time. A hint's truth on a row is
// pvc.Cell.Satisfies, exactly what the σ above the scan evaluates, so
// under filterable hints the rows left are exactly those σ keeps
// (Table.ExactHints).
func (b *blockVecs) filter(hints []pvc.ScanHint) {
	for _, h := range hints {
		if !filterable(b.schema, h) {
			continue
		}
		keep := b.Sel[:0]
		if v := b.Vals[h.Col]; v != nil && h.Cell != nil && h.Cell.Kind() == pvc.KindValue {
			// A value column against a numeric constant: Satisfies is
			// Holds of their Cmp, read off the vector without a cell.
			w := h.Cell.Value()
			for _, i := range b.Sel {
				if h.Th.Holds(v[i].Cmp(w)) {
					keep = append(keep, i)
				}
			}
		} else {
			var right pvc.Cell
			if h.Cell != nil {
				right = *h.Cell
			}
			for _, i := range b.Sel {
				if h.Cell == nil {
					right = b.Cell(h.RightCol, int(i))
				}
				if b.Cell(h.Col, int(i)).Satisfies(h.Th, right) {
					keep = append(keep, i)
				}
			}
		}
		b.Sel = keep
	}
}

// grow returns s resized to n elements, reusing its backing array when
// it is large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
