// Package store is the disk-backed columnar storage engine: an
// append-only block format for pvc-tables in which the provenance
// annotation is serialized as just another column, per-block zone maps
// (min/max) over the data columns, and per-block annotation summaries
// that let a scan skip blocks which provably cannot contribute to a
// result — data skipping extended with provenance skipping, with the
// scan path isolated from any future update path by an epoch-stamped
// read-only snapshot taken at Open.
//
// On-disk layout of a store directory:
//
//	manifest.json  — format version, epoch, semiring, schemas, and the
//	                 whole block index (offsets, row counts, zone maps,
//	                 annotation summaries); written atomically (temp +
//	                 rename) and written LAST, so a crash mid-ingest
//	                 leaves no readable store rather than a partially
//	                 indexed one
//	vars.dat       — the variable registry (names + distributions) in
//	                 declaration order, CRC-trailed
//	tNNNN.dat      — one data file per table: a sequence of blocks
//
// Each block is self-delimiting and CRC-trailed:
//
//	"PVB1" | uvarint nrows | uvarint ncols
//	ncols × (uvarint seglen | segment)       — column segments
//	uvarint seglen | segment                 — annotation segment
//	crc32(IEEE) over everything above, 4 bytes little-endian
//
// Value cells are a tag byte (finite / +inf / -inf) plus a zigzag
// varint; string cells are length-prefixed bytes. Annotation records are
// tagged: the constant 1S (the overwhelmingly common deterministic
// case) costs one byte, other constants inline their value, Boolean
// variables store an ordinal into the vars file, and anything else
// round-trips through the canonical expr.String/expr.Parse rendering.
package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"pvcagg/internal/expr"
	"pvcagg/internal/value"
)

// Format is the on-disk format version recorded in the manifest.
const Format = 1

const (
	blockMagic = "PVB1"
	varsMagic  = "PVV1"
)

// minBlockLen is the length of the smallest block: its magic and CRC.
const minBlockLen = len(blockMagic) + 4

// Value encoding tags.
const (
	tagFinite byte = 0
	tagPosInf byte = 1
	tagNegInf byte = 2
)

// Annotation record tags.
const (
	annOne   byte = 0 // the constant 1S
	annConst byte = 1 // any other constant, value-encoded
	annVar   byte = 2 // a variable, as an ordinal into the vars file
	annExpr  byte = 3 // canonical expr.String rendering, length-prefixed
)

func appendValue(b []byte, v value.V) []byte {
	switch {
	case v.IsPosInf():
		return append(b, tagPosInf)
	case v.IsNegInf():
		return append(b, tagNegInf)
	default:
		b = append(b, tagFinite)
		return binary.AppendVarint(b, v.Int64())
	}
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// reader is a bounds-checked cursor over one decoded segment; every
// decode error is reported as corruption by the caller.
type reader struct {
	buf []byte
	pos int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, fmt.Errorf("unexpected end of segment at offset %d", r.pos)
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.buf)-r.pos) {
		return nil, fmt.Errorf("segment overrun: need %d bytes at offset %d", n, r.pos)
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// segment reads one length-prefixed segment.
func (r *reader) segment() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	return r.bytes(n)
}

func (r *reader) value() (value.V, error) {
	tag, err := r.byte()
	if err != nil {
		return value.V{}, err
	}
	switch tag {
	case tagPosInf:
		return value.PosInf(), nil
	case tagNegInf:
		return value.NegInf(), nil
	case tagFinite:
		n, err := r.varint()
		if err != nil {
			return value.V{}, err
		}
		return value.Int(n), nil
	default:
		return value.V{}, fmt.Errorf("bad value tag %d at offset %d", tag, r.pos-1)
	}
}

func (r *reader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func appendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func (r *reader) float64() (float64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// appendAnn encodes one annotation record. ord maps a variable name to
// its ordinal, declaring it on first sight.
func appendAnn(b []byte, ann expr.Expr, ord func(string) uint64) []byte {
	switch a := ann.(type) {
	case expr.Const:
		if a.V.IsOne() {
			return append(b, annOne)
		}
		b = append(b, annConst)
		return appendValue(b, a.V)
	case expr.Var:
		b = append(b, annVar)
		return binary.AppendUvarint(b, ord(a.Name))
	default:
		// Register every variable inside the expression too, so its
		// distribution is persisted (and an undeclared one is caught at
		// commit) even though the expression round-trips as text.
		for _, name := range expr.Vars(ann) {
			ord(name)
		}
		b = append(b, annExpr)
		return appendString(b, expr.String(ann))
	}
}

// ann decodes one annotation record. vars is the ordinal → variable
// table from the vars file.
func (r *reader) ann(vars []expr.Expr) (expr.Expr, error) {
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case annOne:
		return annOneExpr, nil
	case annConst:
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		return expr.Const{V: v}, nil
	case annVar:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n >= uint64(len(vars)) {
			return nil, fmt.Errorf("variable ordinal %d out of range (%d vars)", n, len(vars))
		}
		return vars[n], nil
	case annExpr:
		s, err := r.string()
		if err != nil {
			return nil, err
		}
		e, err := expr.Parse(s)
		if err != nil {
			// Quote a bounded prefix: a hostile record (expr.ErrTooDeep
			// is a megabyte of parentheses) must not be echoed whole. The
			// block decoder reports the failure as ErrCorrupt.
			return nil, fmt.Errorf("bad annotation expression %.64q (%d bytes): %v", s, len(s), err)
		}
		return e, nil
	default:
		return nil, fmt.Errorf("bad annotation tag %d at offset %d", tag, r.pos-1)
	}
}
