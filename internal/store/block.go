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

// blockVecs is one block decoded column-wise: a typed vector per needed
// column, the annotation vector, and the selection vector naming the rows
// that are still in play. A scan owns one blockVecs and decodes every
// block it reads into the same vectors, so the cost of a block is its
// bytes, not its rows. Value vectors are pointer-free; string vectors
// own their bytes (they never alias the raw block buffer, which the next
// block overwrites).
type blockVecs struct {
	schema pvc.Schema
	vals   [][]value.V // by schema column; nil unless needed and TValue
	strs   [][]string  // by schema column; nil unless needed and TString
	need   []bool      // by schema column: decode it
	anns   []expr.Expr
	sel    []int32 // surviving rows, ascending
}

// newBlockVecs sizes the column table for a scan that outputs cols and
// filters on hints (a hint may name a column the scan does not output).
func newBlockVecs(schema pvc.Schema, cols []int, hints []pvc.ScanHint) *blockVecs {
	b := &blockVecs{
		schema: schema,
		vals:   make([][]value.V, len(schema)),
		strs:   make([][]string, len(schema)),
		need:   make([]bool, len(schema)),
	}
	for _, c := range cols {
		b.need[c] = true
	}
	for _, h := range hints {
		if b.filters(h) {
			b.need[h.Col] = true
			if h.Cell == nil {
				b.need[h.RightCol] = true
			}
		}
	}
	return b
}

// filters reports whether h can be evaluated row by row: its columns
// exist and its right operand is a column or a constant cell. Any other
// hint is ignored, as the contract allows.
func (b *blockVecs) filters(h pvc.ScanHint) bool {
	if h.Col < 0 || h.Col >= len(b.schema) {
		return false
	}
	if h.Cell != nil {
		return h.Cell.IsConst()
	}
	return h.RightCol >= 0 && h.RightCol < len(b.schema)
}

// cell returns row i of column ci as a cell.
func (b *blockVecs) cell(ci, i int) pvc.Cell {
	if v := b.vals[ci]; v != nil {
		return pvc.ValueCell(v[i])
	}
	return pvc.StringCell(b.strs[ci][i])
}

// decode verifies one raw block (magic, CRC, row and column counts,
// segment bounds) and decodes its needed columns and annotations into
// the vectors, leaving in sel every row — or, under dropZero, every row
// whose annotation is not the constant 0S. wantRows is the row count the
// block index recorded; vectors are sized by it only after the block's
// own header agrees and the block is long enough to hold that many
// annotation records. On error sel is empty: no row of this block or of
// the block decoded before it is visible.
func (b *blockVecs) decode(buf []byte, wantRows int, vars []expr.Expr, dropZero bool) error {
	b.sel = b.sel[:0]
	if len(buf) < len(blockMagic)+4 || string(buf[:len(blockMagic)]) != blockMagic {
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
			vals := grow(b.vals[ci], n)
			b.vals[ci] = vals
			for i := range vals {
				if vals[i], err = sr.value(); err != nil {
					return fmt.Errorf("column %s: %v", col.Name, err)
				}
			}
		} else {
			strs := grow(b.strs[ci], n)
			b.strs[ci] = strs
			for i := range strs {
				if strs[i], err = sr.string(); err != nil {
					return fmt.Errorf("column %s: %v", col.Name, err)
				}
			}
		}
	}
	seg, err := r.segment()
	if err != nil {
		return err
	}
	sr := &reader{buf: seg}
	b.anns = grow(b.anns, n)
	b.sel = grow(b.sel, n)[:0]
	for i := range b.anns {
		ann, err := sr.ann(vars)
		if err != nil {
			b.sel = b.sel[:0]
			return fmt.Errorf("annotation: %v", err)
		}
		b.anns[i] = ann
		if dropZero {
			if _, zero := annClass(ann); zero {
				continue
			}
		}
		b.sel = append(b.sel, int32(i))
	}
	return nil
}

// filter drops from sel the rows that fail a hint, one hint (one pass
// over the operand vectors) at a time. A hint's truth on a row is
// pvc.Cell.Satisfies, exactly what the σ above the scan evaluates, so
// only rows that σ would drop are dropped.
func (b *blockVecs) filter(hints []pvc.ScanHint) {
	for _, h := range hints {
		if !b.filters(h) {
			continue
		}
		var right pvc.Cell
		if h.Cell != nil {
			right = *h.Cell
		}
		keep := b.sel[:0]
		for _, i := range b.sel {
			if h.Cell == nil {
				right = b.cell(h.RightCol, int(i))
			}
			if b.cell(h.Col, int(i)).Satisfies(h.Th, right) {
				keep = append(keep, i)
			}
		}
		b.sel = keep
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
