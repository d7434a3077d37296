package engine

// The hash keys of step I's keyed operators — ⋈/× (join key), π/∪ and $
// (group key) — and the one table that interns them.
//
// A key is the concatenation of its cells' encodings, written straight
// off a batch's vectors or a tuple's cells (row.appendKey):
//
//   - a value cell is a tag (finite, −∞ or +∞) and the integer's 8
//     little-endian bytes, 0 for an infinity;
//   - a string cell is a tag, its uvarint length and its bytes;
//   - an expression cell is a tag and its canonical rendering
//     (expr.String, what Cell.Equal compares), length-prefixed alike.
//
// Every encoding is self-delimiting, so two keys over the same columns
// are equal exactly when their cells are equal column by column under
// pvc.Cell.Equal, whatever bytes a string holds.

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand/v2"

	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// Key tags.
const (
	keyInt byte = iota
	keyNegInf
	keyPosInf
	keyStr
	keyExpr
)

func appendValueKey(b []byte, v value.V) []byte {
	tag, n := keyInt, uint64(0)
	switch {
	case v.IsInt():
		n = uint64(v.Int64())
	case v.IsNegInf():
		tag = keyNegInf
	default:
		tag = keyPosInf
	}
	return append(b, tag, byte(n), byte(n>>8), byte(n>>16), byte(n>>24), byte(n>>32), byte(n>>40), byte(n>>48), byte(n>>56))
}

func appendBytesKey(b []byte, tag byte, s string) []byte {
	return append(binary.AppendUvarint(append(b, tag), uint64(len(s))), s...)
}

func appendCellKey(b []byte, c pvc.Cell) []byte {
	switch c.Kind() {
	case pvc.KindValue:
		return appendValueKey(b, c.Value())
	case pvc.KindString:
		return appendBytesKey(b, keyStr, c.Str())
	default:
		return appendBytesKey(b, keyExpr, expr.String(c.Expr()))
	}
}

// appendKey appends to buf the key of the cells at idx, read straight
// off the vectors or the tuple's cells. The keyed operators keep one
// buffer and look it up in their keyTable, which copies a key only when
// it is new.
func (r *row) appendKey(buf []byte, idx []int) []byte {
	for _, j := range idx {
		switch {
		case r.b == nil:
			buf = appendCellKey(buf, r.t.Cells[j])
		case r.b.Strs[j] != nil:
			buf = appendBytesKey(buf, keyStr, r.b.Strs[j][r.i])
		default:
			buf = appendValueKey(buf, r.b.Vals[j][r.i])
		}
	}
	return buf
}

// maxCodeIDs caps the code combinations a codeIDs array indexes (16 KiB
// of ids): a batch whose key columns' dictionary sizes multiply past it
// is keyed by bytes.
const maxCodeIDs = 1 << 12

// codeIDs gives the rows of a batch whose key columns are all
// dictionary-coded (pvc.Batch.Coded) their ids in a keyTable, for π/∪
// and $. The first row of each code combination in the batch is keyed
// by bytes and interned like any row, so equal cells get one id across
// batches whose dictionaries differ; the later ones read that id from
// an array indexed by their codes. The array is sized to the product of
// the dictionary sizes, reused, and cleared whenever the cursor takes a
// new batch (row.batch changes): a code means nothing outside its
// batch. A tuple row, and a row of a batch with a plain key column or
// more than maxCodeIDs combinations, is keyed by bytes. The zero value
// is ready; an operator with several inputs resets it before each.
type codeIDs struct {
	batch  int       // the row.batch the array serves
	on     bool      // that batch's key columns are all coded
	codes  [][]uint8 // per key column, that batch's codes
	stride []int     // per key column, its code's weight in a combination
	ids    []int32   // per combination: id+1, 0 until its first row
	key    []byte    // reused key buffer
}

func (c *codeIDs) reset() { c.batch, c.on = 0, false }

// id returns the id in t of r's key, the cells at idx, and whether it
// was added.
func (c *codeIDs) id(t *keyTable, r *row, idx []int) (int, bool) {
	if r.batch != c.batch {
		c.setup(r, idx)
	}
	if !c.on {
		c.key = r.appendKey(c.key[:0], idx)
		return t.intern(c.key)
	}
	slot := 0
	for k, codes := range c.codes {
		slot += int(codes[r.i]) * c.stride[k]
	}
	if id := c.ids[slot]; id > 0 {
		return int(id - 1), false
	}
	c.key = r.appendKey(c.key[:0], idx)
	id, added := t.intern(c.key)
	c.ids[slot] = int32(id + 1)
	return id, added
}

// setup readies the array for r's batch.
func (c *codeIDs) setup(r *row, idx []int) {
	c.batch, c.on = r.batch, false
	if r.b == nil {
		return
	}
	c.codes, c.stride = c.codes[:0], c.stride[:0]
	n := 1
	for _, j := range idx {
		dict, codes := r.b.Coded(j)
		if codes == nil || n*len(dict) > maxCodeIDs {
			return
		}
		c.codes, c.stride = append(c.codes, codes), append(c.stride, n)
		n *= len(dict)
	}
	if cap(c.ids) < n {
		c.ids = make([]int32, n)
	}
	c.ids = c.ids[:n]
	clear(c.ids)
	c.on = true
}

// keyTable interns keys as dense ids 0, 1, … in first-seen order: one
// open-addressing table (linear probing, grown at ½ load) whose slots
// hold ids, each id holding its key's hash and the end of its key in a
// byte arena. The operators index their buckets and groups by id and
// nothing iterates over the slots, so no output depends on the hash
// seed. The zero value is an empty table.
type keyTable struct {
	interns int // calls of intern, which the tests count
	seed    uint64
	slots   []int32  // id+1 of the key in the slot; 0 when it is free
	hash    []uint64 // per id
	end     []int    // per id: the end of its key in arena
	arena   []byte
}

// find returns key's id, or -1 when it was never interned.
func (t *keyTable) find(key []byte) int {
	if len(t.end) == 0 {
		return -1
	}
	_, id := t.probe(key, hashKey(t.seed, key))
	return id
}

// intern returns key's id, giving it the next one when it is new.
func (t *keyTable) intern(key []byte) (id int, added bool) {
	t.interns++
	if 2*(len(t.end)+1) > len(t.slots) {
		t.grow()
	}
	h := hashKey(t.seed, key)
	s, id := t.probe(key, h)
	if id >= 0 {
		return id, false
	}
	id = len(t.end)
	t.arena = append(t.arena, key...)
	t.end = append(t.end, len(t.arena))
	t.hash = append(t.hash, h)
	t.slots[s] = int32(id + 1)
	return id, true
}

// probe returns the slot at which the search for key, hashed to h, ends
// and the id held there: key's, or -1 for a free slot.
func (t *keyTable) probe(key []byte, h uint64) (slot, id int) {
	mask := len(t.slots) - 1
	for s := int(h) & mask; ; s = (s + 1) & mask {
		e := t.slots[s]
		if e == 0 {
			return s, -1
		}
		id := int(e - 1)
		if t.hash[id] != h {
			continue
		}
		start := 0
		if id > 0 {
			start = t.end[id-1]
		}
		if bytes.Equal(t.arena[start:t.end[id]], key) {
			return s, id
		}
	}
}

// grow doubles the slots (16 at first) and re-places every id by its
// stored hash.
func (t *keyTable) grow() {
	if len(t.slots) == 0 {
		t.seed = rand.Uint64()
	}
	t.slots = make([]int32, max(16, 2*len(t.slots)))
	mask := len(t.slots) - 1
	for id, h := range t.hash {
		s := int(h) & mask
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(id + 1)
	}
}

// hashKey hashes key a word at a time, in the manner of wyhash: every
// 8-byte word but the last two is folded into the seed by a 64×64→128-bit
// multiply whose halves are xored, and the last 16 bytes at most (read as
// two words that may overlap) by one more.
func hashKey(seed uint64, key []byte) uint64 {
	h := seed ^ uint64(len(key))*0xa0761d6478bd642f
	for ; len(key) > 16; key = key[8:] {
		h = foldMul(h^binary.LittleEndian.Uint64(key), 0xe7037ed1a0b428db)
	}
	var a, b uint64
	switch n := len(key); {
	case n >= 8:
		a, b = binary.LittleEndian.Uint64(key), binary.LittleEndian.Uint64(key[n-8:])
	case n >= 4:
		a, b = uint64(binary.LittleEndian.Uint32(key)), uint64(binary.LittleEndian.Uint32(key[n-4:]))
	case n > 0:
		a = uint64(key[0])<<16 | uint64(key[n>>1])<<8 | uint64(key[n-1])
	}
	return foldMul(a^0x8ebc6af09c88c6e3, b^h)
}

func foldMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}
