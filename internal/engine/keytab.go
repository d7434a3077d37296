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
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"

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
// of ids): a batch whose key columns' code ranges multiply past it is
// keyed by bytes.
const maxCodeIDs = 1 << 12

// codeIDs gives the rows of a batch whose key columns are all coded
// their ids in a keyTable: π/∪ and $ intern them (id), the ⋈ probe looks
// them up (find). A column is coded when it is dictionary-coded
// (pvc.Batch.Coded: its code is the row's dictionary index, its range
// the dictionary) or has a span (pvc.Batch.Span: its code is v − Base,
// its range N). When the cursor takes a new batch (row.batch changes),
// setup computes every selected row's code combination a column at a
// time and clears an array of ids, one per combination: a code means
// nothing outside its batch. The first row of each combination is keyed
// by bytes and interned or found like any row, so equal cells get one
// id across batches whose codes differ and the same id the tuple path
// gives; the later ones read that id — or find's miss, since the table
// a probe reads is complete — from the array. A tuple row, and a row of
// a batch with an uncoded key column or more than maxCodeIDs
// combinations, is keyed by bytes. The zero value is ready; an operator
// with several inputs resets it before each, and every operator
// releases it when it is done, which hands its arrays back to codePool.
type codeIDs struct {
	batch int         // the row.batch the arrays serve
	on    bool        // that batch's key columns are all coded
	cols  []codeCol   // setup's scratch: per key column, in that batch
	arr   *codeArrays // from codePool, once a batch was coded
	ids   []int32     // per combination: id+2 (1 for a miss of find), 0 until its first row
	combo []int32     // per selected row of the batch: its combination
	key   []byte      // reused key buffer
}

// codeArrays is the storage of a codeIDs' ids and combinations.
// codePool keeps them across operators and queries, so a query keyed by
// codes allocates none once the pool holds arrays for its batches.
type codeArrays struct {
	ids   [maxCodeIDs]int32
	combo []int32
}

var codePool = sync.Pool{New: func() any { return new(codeArrays) }}

// codeCol is one coded key column of a batch.
type codeCol struct {
	codes  []uint8   // its dictionary codes, or nil when it has a span
	vals   []value.V // its values, when it has a span
	base   uint64    // the span's base
	n      uint64    // its codes' range: the dictionary's size or the span's N
	stride int32     // its code's weight in a combination
}

// addCodes adds to combo[i] the column's code of row i times its stride,
// for every row i of sel.
func (c *codeCol) addCodes(combo, sel []int32) {
	if c.codes != nil {
		for _, i := range sel {
			combo[i] += int32(c.codes[i]) * c.stride
		}
		return
	}
	for _, i := range sel {
		d := uint64(c.vals[i].Int64()) - c.base
		if d >= c.n {
			panic(fmt.Sprintf("engine: a batch's span [%d, +%d) does not hold its row's value %v", int64(c.base), c.n, c.vals[i]))
		}
		combo[i] += int32(d) * c.stride
	}
}

func (c *codeIDs) reset() { c.batch, c.on = 0, false }

// release resets c and hands its arrays back to codePool.
func (c *codeIDs) release() {
	c.reset()
	if c.arr != nil {
		codePool.Put(c.arr)
		c.arr, c.ids, c.combo = nil, nil, nil
	}
}

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
	s := c.combo[r.i]
	if id := c.ids[s]; id != 0 {
		return int(id - 2), false
	}
	c.key = r.appendKey(c.key[:0], idx)
	id, added := t.intern(c.key)
	c.ids[s] = int32(id + 2)
	return id, added
}

// find returns the id in t of r's key, the cells at idx, or -1 when t
// holds no such key. t must not change while the batch lasts.
func (c *codeIDs) find(t *keyTable, r *row, idx []int) int {
	if r.batch != c.batch {
		c.setup(r, idx)
	}
	if !c.on {
		c.key = r.appendKey(c.key[:0], idx)
		return t.find(c.key)
	}
	s := c.combo[r.i]
	if id := c.ids[s]; id != 0 {
		return int(id - 2)
	}
	c.key = r.appendKey(c.key[:0], idx)
	id := t.find(c.key)
	c.ids[s] = int32(id + 2)
	return id
}

// setup readies the arrays for r's batch.
func (c *codeIDs) setup(r *row, idx []int) {
	c.batch, c.on = r.batch, false
	if r.b == nil {
		return
	}
	c.cols = c.cols[:0]
	n := 1
	for _, j := range idx {
		col := codeCol{stride: int32(n)}
		if dict, codes := r.b.Coded(j); codes != nil {
			col.codes, col.n = codes, uint64(len(dict))
		} else if sp := r.b.Span(j); sp.N > 0 {
			col.vals, col.base, col.n = r.b.Vals[j], uint64(sp.Base), uint64(sp.N)
		}
		if col.n == 0 || col.n > uint64(maxCodeIDs/n) {
			return
		}
		c.cols = append(c.cols, col)
		n *= int(col.n)
	}
	if c.arr == nil {
		c.arr = codePool.Get().(*codeArrays)
	}
	c.ids = c.arr.ids[:n]
	clear(c.ids)
	sel := r.b.Sel
	if rows := int(sel[len(sel)-1]) + 1; len(c.arr.combo) < rows {
		c.arr.combo = make([]int32, rows)
	}
	c.combo = c.arr.combo
	for _, i := range sel {
		c.combo[i] = 0
	}
	for k := range c.cols {
		c.cols[k].addCodes(c.combo, sel)
	}
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
	finds   int // calls of find, likewise
	seed    uint64
	slots   []int32  // id+1 of the key in the slot; 0 when it is free
	hash    []uint64 // per id
	end     []int    // per id: the end of its key in arena
	arena   []byte
}

// find returns key's id, or -1 when it was never interned.
func (t *keyTable) find(key []byte) int {
	t.finds++
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
