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
//	"PVB3" | uvarint nrows | uvarint ncols
//	ncols × (uvarint seglen | segment)       — column segments
//	uvarint seglen | segment                 — annotation segment
//	crc32(IEEE) over everything above, 4 bytes little-endian
//
// nrows equals the block index's count for the block, which is at most
// the manifest's block capacity, itself at most 2²⁰. Nothing bounds it
// by the block's length: a packed column and an all-one annotation
// segment may take no bytes per row.
//
// Every segment opens with an encoding byte. A value column's segment
// is
//
//	0 (plain)  | nrows × (tag byte | zigzag varint)
//	1 (packed) | run
//
// where a packed run is
//
//	zigzag varint base | width byte w ≤ 56 | ⌈nrows·w/8⌉ bytes
//
// and holds row i's value as base plus the w bits from bit i·w of its
// payload, LSB-first. The writer packs a block's column against its
// minimum when the column holds no ±∞ and its maximum exceeds its
// minimum by less than 2⁵⁶, and writes it plain (a tag byte — finite,
// +inf or -inf — and a varint per cell) otherwise; a constant column
// packs at width 0, with no payload. A decoder unpacks a run with one
// 64-bit load per row: a row's bits start in some byte at bit offset at
// most 7, so 56 of them still lie in that byte's 64-bit word.
//
// A string column's segment is
//
//	0 (plain) | nrows × (uvarint len | bytes)
//	1 (dict)  | uvarint k | k × (uvarint len | bytes) | nrows code bytes
//
// The writer codes a block's string column when it holds at most 255
// distinct strings and at most half as many as the block has rows; the
// dictionary lists them in first-seen order and row i's byte is its
// string's index in it. A decoder reads the dictionary from the block
// and fills each row's string from it, with nothing allocated per row.
//
// The annotation segment is
//
//	0 (records) | nrows records
//	1 (all one)                  — every row is the constant 1S
//	2 (all vars) | run           — row i is the variable of ordinal i
//
// The writer picks 1 when every row of the block is annotated 1S (the
// overwhelmingly common deterministic case; the segment is its encoding
// byte alone), 2 when every row is a Boolean variable (a packed run of
// ordinals into the vars file), and 0 otherwise. Records are tagged:
// the constant 1S costs one byte, other constants inline their value,
// Boolean variables store an ordinal into the vars file, and anything
// else round-trips through the canonical expr.String/expr.Parse
// rendering.
package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"pvcagg/internal/expr"
	"pvcagg/internal/value"
)

// Format is the on-disk format version recorded in the manifest. Format
// 2 added dictionary-coded string columns, format 3 packed integer
// columns and the all-one and all-variable annotation segments; Open
// refuses any other version with ErrFormat.
const Format = 3

const (
	blockMagic = "PVB3"
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

// Value column encodings: the first byte of a value column's segment.
const (
	valPlain  byte = 0
	valPacked byte = 1
)

// Annotation segment encodings: the first byte of the annotation
// segment.
const (
	annsRecords byte = 0
	annsOne     byte = 1
	annsVars    byte = 2
)

// maxWidth is the widest packed row, in bits: at bit offset 7 of its
// first byte a row of 56 bits still ends inside that byte's 64-bit word.
const maxWidth = 56

// appendValues encodes one value column of a block whose cells lie in
// [lo, hi]: packed against lo when neither is infinite and hi − lo <
// 2⁵⁶, plain otherwise.
func appendValues(b []byte, vals []value.V, lo, hi value.V) []byte {
	if lo.IsInt() && hi.IsInt() {
		base := lo.Int64()
		if span := uint64(hi.Int64()) - uint64(base); span < 1<<maxWidth {
			var p packer
			b, p = beginRun(append(b, valPacked), base, span)
			for _, v := range vals {
				b = p.add(b, uint64(v.Int64())-uint64(base))
			}
			return p.end(b)
		}
	}
	b = append(b, valPlain)
	for _, v := range vals {
		b = appendValue(b, v)
	}
	return b
}

// appendOrdinals encodes an all-variable annotation segment over anns,
// each an expr.Var: their ordinals under ord as a packed run against
// their minimum.
func appendOrdinals(b []byte, anns []expr.Expr, ord func(string) uint64) []byte {
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, ann := range anns {
		o := ord(ann.(expr.Var).Name)
		lo, hi = min(lo, o), max(hi, o)
	}
	b, p := beginRun(append(b, annsVars), int64(lo), hi-lo)
	for _, ann := range anns {
		b = p.add(b, ord(ann.(expr.Var).Name)-lo)
	}
	return p.end(b)
}

// packer appends the payload of a packed run one row at a time.
type packer struct {
	acc   uint64 // bits not yet appended, LSB-first
	nbits uint   // how many; fewer than 8 between rows
	w     uint
}

// beginRun appends the header of a packed run of rows in [base, base +
// span] — its base and the width that span needs — and returns the
// packer for its rows.
func beginRun(b []byte, base int64, span uint64) ([]byte, packer) {
	w := uint(bits.Len64(span))
	return append(binary.AppendVarint(b, base), byte(w)), packer{w: w}
}

// add appends row offset d (< 2^w) to the run.
func (p *packer) add(b []byte, d uint64) []byte {
	p.acc |= d << p.nbits
	for p.nbits += p.w; p.nbits >= 8; p.nbits -= 8 {
		b = append(b, byte(p.acc))
		p.acc >>= 8
	}
	return b
}

// end appends the run's last partial byte.
func (p *packer) end(b []byte) []byte {
	if p.nbits > 0 {
		b = append(b, byte(p.acc))
	}
	return b
}

// run is a packed run as read from a segment: row i is base plus the w
// bits from bit i·w of bits.
type run struct {
	base int64
	w    uint
	bits []byte
}

// run reads a packed run of n rows that fills the rest of the segment.
// Its width is checked before anything is sized by it, and its payload
// must be exactly ⌈n·w/8⌉ bytes, so no row's bits lie outside it.
func (r *reader) run(n int) (run, error) {
	base, err := r.varint()
	if err != nil {
		return run{}, err
	}
	w, err := r.byte()
	if err != nil {
		return run{}, err
	}
	if w > maxWidth {
		return run{}, fmt.Errorf("packed width %d exceeds %d", w, maxWidth)
	}
	need := (uint64(n)*uint64(w) + 7) / 8
	if have := uint64(len(r.buf) - r.pos); have != need {
		return run{}, fmt.Errorf("packed run of %d rows at width %d needs %d bytes, segment holds %d", n, w, need, have)
	}
	p := run{base: base, w: uint(w), bits: r.buf[r.pos:]}
	r.pos = len(r.buf)
	return p, nil
}

// at returns row i's offset from base; i must be below the run's rows.
func (p *run) at(i int) uint64 {
	bit := uint(i) * p.w
	off := bit >> 3
	var word uint64
	if off+8 <= uint(len(p.bits)) {
		word = binary.LittleEndian.Uint64(p.bits[off:])
	} else {
		for j, c := range p.bits[off:] {
			word |= uint64(c) << (8 * j)
		}
	}
	return word >> (bit & 7) & (1<<p.w - 1)
}

// values decodes the run into dst, one row per element: one 64-bit
// load per row whose word lies inside the payload, at for the last few.
func (p *run) values(dst []value.V) {
	if p.w == 0 {
		for i := range dst {
			dst[i] = value.Int(p.base)
		}
		return
	}
	// Row i's word lies inside the payload while (i·w)/8 + 8 ≤ len(bits).
	fast := 0
	if len(p.bits) >= 8 {
		fast = min(len(dst), ((len(p.bits)-8)*8+7)/int(p.w)+1)
	}
	mask, bit := uint64(1)<<p.w-1, uint(0)
	head := dst[:fast]
	for i := range head {
		head[i] = value.Int(p.base + int64(binary.LittleEndian.Uint64(p.bits[bit>>3:])>>(bit&7)&mask))
		bit += p.w
	}
	for i := fast; i < len(dst); i++ {
		dst[i] = value.Int(p.base + int64(p.at(i)))
	}
}

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

// String column encodings: the first byte of a string column's segment.
const (
	strPlain byte = 0
	strDict  byte = 1
)

// maxDict is the most entries a dictionary may hold: a code is one byte.
const maxDict = 255

// dictCoder encodes the string columns of a writer's blocks; its map
// and buffers are reused from block to block.
type dictCoder struct {
	ids   map[string]uint8
	dict  []string // the block's strings, in first-seen order
	codes []byte
}

// appendColumn encodes one string column of a block: dictionary-coded
// when it holds at most maxDict distinct strings and at most half as
// many as it has rows, plain otherwise.
func (d *dictCoder) appendColumn(b []byte, strs []string) []byte {
	if d.ids == nil {
		d.ids = map[string]uint8{}
	}
	clear(d.ids)
	d.dict, d.codes = d.dict[:0], d.codes[:0]
	limit := min(maxDict, len(strs)/2)
	for _, s := range strs {
		code, ok := d.ids[s]
		if !ok {
			if len(d.dict) == limit {
				b = append(b, strPlain)
				for _, s := range strs {
					b = appendString(b, s)
				}
				return b
			}
			code = uint8(len(d.dict))
			d.ids[s] = code
			d.dict = append(d.dict, s)
		}
		d.codes = append(d.codes, code)
	}
	b = binary.AppendUvarint(append(b, strDict), uint64(len(d.dict)))
	for _, s := range d.dict {
		b = appendString(b, s)
	}
	return append(b, d.codes...)
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
// its ordinal.
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
