package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// blockSegments returns the segments of each block of table name, the
// annotation segment last.
func blockSegments(t *testing.T, dir string, st *Store, name string) [][][]byte {
	t.Helper()
	tab, ok := st.Table(name)
	if !ok {
		t.Fatalf("no table %s", name)
	}
	img, err := os.ReadFile(filepath.Join(dir, tab.meta.File))
	if err != nil {
		t.Fatal(err)
	}
	var out [][][]byte
	for _, bm := range tab.meta.Blocks {
		r := &reader{buf: img[bm.Off : bm.Off+int64(bm.Len)-4], pos: len(blockMagic)}
		if _, err := r.uvarint(); err != nil {
			t.Fatal(err)
		}
		ncols, err := r.uvarint()
		if err != nil {
			t.Fatal(err)
		}
		var segs [][]byte
		for range ncols + 1 {
			seg, err := r.segment()
			if err != nil {
				t.Fatal(err)
			}
			segs = append(segs, seg)
		}
		out = append(out, segs)
	}
	return out
}

// TestWriterPacksColumns: the writer packs a block's value column
// against its minimum exactly when the column holds no ±∞ and spans less
// than 2⁵⁶ — a constant column at width 0 with no payload, a negative
// base as well as a positive one — and writes it plain otherwise; it
// writes an all-1S annotation block as its encoding byte alone, an
// all-variable one as a packed run of ordinals, and any other as
// records. Every column scans back to the cells appended.
func TestWriterPacksColumns(t *testing.T) {
	cols := []struct {
		name  string
		vals  []value.V
		enc   byte
		width int // of a packed column
	}{
		{"constant", ints(5, 5, 5, 5), valPacked, 0},
		{"negative base", ints(-7, -3, -1<<40, -7), valPacked, 40},
		{"positive base", ints(1000, 1003, 1001, 1002), valPacked, 2},
		{"widest packed", ints(-1, 1<<56-2, 0, -1), valPacked, 56},
		{"span 2^56", ints(-1, 1<<56-1, 0, 3), valPlain, 0},
		{"int64 extremes", ints(math.MinInt64, math.MaxInt64, 0, 1), valPlain, 0},
		{"+inf", []value.V{value.Int(1), value.PosInf(), value.Int(2), value.Int(3)}, valPlain, 0},
		{"-inf", []value.V{value.Int(1), value.Int(2), value.NegInf(), value.Int(3)}, valPlain, 0},
	}
	const rows = 4
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("y", 0.5)
	dir := t.TempDir()
	w, err := Create(dir, algebra.Natural, reg, Options{BlockCapacity: rows})
	if err != nil {
		t.Fatal(err)
	}
	var schema pvc.Schema
	for _, c := range cols {
		schema = append(schema, pvc.Col{Name: c.name, Type: pvc.TValue})
	}
	tw, err := w.CreateTable("p", schema)
	if err != nil {
		t.Fatal(err)
	}
	// One block per annotation segment encoding, the columns the same in
	// each: all 1S, all variables (y is met first, so its ordinal is 0),
	// mixed records, all 0S.
	blockAnns := [][]expr.Expr{
		{nil, expr.CInt(1), nil, expr.CInt(1)},
		{expr.V("y"), expr.V("x"), expr.V("y"), expr.V("y")},
		{expr.V("x"), expr.CInt(1), expr.MustParse("x*y"), expr.CInt(3)},
		{expr.CInt(0), expr.CInt(0), expr.CInt(0), expr.CInt(0)},
	}
	for _, anns := range blockAnns {
		for i := range rows {
			cells := make([]pvc.Cell, len(cols))
			for ci, c := range cols {
				cells[ci] = pvc.ValueCell(c.vals[i])
			}
			if err := tw.Append(anns[i], cells...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	blocks := blockSegments(t, dir, st, "p")
	if len(blocks) != len(blockAnns) {
		t.Fatalf("%d blocks, want %d", len(blocks), len(blockAnns))
	}
	for bi, segs := range blocks {
		for ci, c := range cols {
			seg := segs[ci]
			if seg[0] != c.enc {
				t.Errorf("block %d, column %s: encoding %d, want %d", bi, c.name, seg[0], c.enc)
				continue
			}
			if c.enc != valPacked {
				continue
			}
			r := &reader{buf: seg, pos: 1}
			p, err := r.run(rows)
			if err != nil {
				t.Fatalf("block %d, column %s: %v", bi, c.name, err)
			}
			if lo := slices.MinFunc(c.vals, value.V.Cmp); p.base != lo.Int64() || int(p.w) != c.width {
				t.Errorf("block %d, column %s: packed against %d at width %d, want %v at %d", bi, c.name, p.base, p.w, lo, c.width)
			}
		}
	}
	anns := func(bi int) []byte { return blocks[bi][len(cols)] }
	if got := anns(0); len(got) != 1 || got[0] != annsOne {
		t.Errorf("all-1S annotation segment %v, want [%d]", got, annsOne)
	}
	if got, want := anns(1), ordSeg(0, 1, 0, 0); !slices.Equal(got, want) {
		t.Errorf("all-variable annotation segment %v, want %v", got, want)
	}
	for _, bi := range []int{2, 3} {
		if got := anns(bi); got[0] != annsRecords {
			t.Errorf("block %d: annotation encoding %d, want records", bi, got[0])
		}
	}
	if tab, _ := st.Table("p"); !tab.meta.Blocks[3].AllZero || tab.meta.Blocks[2].AllZero {
		t.Errorf("AllZero marks blocks %v", tab.meta.Blocks)
	}

	tab, _ := st.Table("p")
	it, err := tab.NewScan(context.Background(), pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	got := collect(t, it)
	if len(got) != len(blockAnns)*rows {
		t.Fatalf("scanned %d rows, want %d", len(got), len(blockAnns)*rows)
	}
	for k, tup := range got {
		bi, i := k/rows, k%rows
		for ci, c := range cols {
			if v := tup.Cells[ci].Value(); v != c.vals[i] {
				t.Errorf("block %d row %d column %s: %v, want %v", bi, i, c.name, v, c.vals[i])
			}
		}
		want := blockAnns[bi][i]
		if want == nil {
			want = expr.CInt(1)
		}
		if expr.String(tup.Ann) != expr.String(want) {
			t.Errorf("block %d row %d: annotation %s, want %s", bi, i, expr.String(tup.Ann), expr.String(want))
		}
	}
}

// TestPackedDecoderRejectsHostileBlocks: a CRC-valid block whose packed
// value column or annotation segment is damaged scans, after the rows of
// a valid block, to ErrCorrupt naming the damage — a width past 56, a
// packed run shorter or longer than its rows need, an unknown encoding,
// a variable ordinal outside the vars table, an all-1S segment of more
// than its one byte — and a valid block of each encoding scans to its
// rows.
func TestPackedDecoderRejectsHostileBlocks(t *testing.T) {
	tab, blocks := fuzzFixture(t) // variables x and y: ordinals 0 and 1
	names := appendColumn([]string{"a", "b", "a", "b"})
	w := valueSeg(ints(-1, 0, 7, 2)...)
	body := func(id, anns []byte) []byte { return blockBody(4, id, names, w, anns) }
	one := []byte{annsOne}
	id := valueSeg(ints(3, 4, 5, 6)...) // packed at width 2
	packed := func(width byte, payload ...byte) []byte {
		return append(append(binary.AppendVarint([]byte{valPacked}, 10), width), payload...)
	}
	for _, c := range []struct {
		name   string
		body   []byte
		reason string // "" for a valid block
	}{
		{"valid packed, all one", body(id, one), ""},
		{"valid packed at width 56", body(packed(56, make([]byte, 28)...), one), ""},
		{"valid ordinals", body(id, ordSeg(1, 0, 0, 1)), ""},
		{"valid records", body(valueSeg(ints(1, 2, 3, 4)...), append([]byte{annsRecords}, annOne, annOne, annVar, 1, annOne)), ""},
		{"width 57", body(packed(57, make([]byte, 29)...), one), "packed width 57"},
		{"short packed run", body(packed(8, 1, 2, 3), one), "packed run of 4 rows at width 8 needs 4 bytes, segment holds 3"},
		{"long packed run", body(packed(0, 0), one), "needs 0 bytes, segment holds 1"},
		{"unknown value encoding", body(append([]byte{2}, id[1:]...), one), "bad value encoding 2"},
		{"unknown annotation encoding", body(id, []byte{3}), "bad annotation encoding 3"},
		{"ordinal past the vars table", body(id, ordSeg(1, 0, 2, 1)), "variable ordinal 2 out of range (2 vars)"},
		{"negative ordinal", body(id, append(binary.AppendVarint([]byte{annsVars}, -1), 0)), "variable ordinal -1 out of range"},
		{"all-one segment longer than one byte", body(id, []byte{annsOne, annOne}), "all-one segment of 2 bytes"},
		{"empty annotation segment", body(id, nil), "annotation: unexpected end of segment"},
	} {
		t.Run(c.name, func(t *testing.T) {
			scanHostile(t, tab, blocks[0], c.body, 4, c.reason)
		})
	}
}

// TestPackedSpans: a value column packed at width w ≤ spanWidth hands
// its batch the span {base, 2ʷ} — a negative base, a constant column at
// width 0 and width 12 included — and a column packed wider, written
// plain (holding ±∞, or finite values written plain) or plain after a
// packed block on the same scratch has none; a scan projects the spans
// with the columns.
func TestPackedSpans(t *testing.T) {
	schema := make(pvc.Schema, 6)
	for c := range schema {
		schema[c] = pvc.Col{Name: "c" + strconv.Itoa(c), Type: pvc.TValue}
	}
	plainSeg := func(vals ...value.V) []byte {
		b := []byte{valPlain}
		for _, v := range vals {
			b = appendValue(b, v)
		}
		return b
	}
	packed := blockBody(3,
		valueSeg(ints(-5, -2, -5)...), // width 2
		valueSeg(ints(7, 7, 7)...),    // width 0
		valueSeg(ints(0, 4095, 9)...), // width 12
		valueSeg(ints(0, 4096, 9)...), // width 13
		valueSeg(value.Int(1), value.PosInf(), value.Int(2)),
		plainSeg(ints(1, 2, 3)...),
		[]byte{annsOne})
	b := newBlockVecs(schema)
	b.reset([]int{0, 1, 2, 3, 4, 5}, nil)
	if err := b.decode(sealBlock(packed), 3, nil, false); err != nil {
		t.Fatal(err)
	}
	want := []pvc.Span{{Base: -5, N: 4}, {Base: 7, N: 1}, {Base: 0, N: 4096}, {}, {}, {}}
	if !slices.Equal(b.Spans, want) {
		t.Errorf("spans %v, want %v", b.Spans, want)
	}
	for c, sp := range b.Spans {
		for _, i := range b.Sel {
			if v := b.Vals[c][i]; sp.N > 0 && uint64(v.Int64()-sp.Base) >= uint64(sp.N) {
				t.Errorf("column %d row %d: %v outside its span %+v", c, i, v, sp)
			}
		}
	}
	plain := blockBody(3, plainSeg(ints(-5, -2, -5)...), valueSeg(value.NegInf(), value.Int(7), value.Int(7)),
		valueSeg(ints(0, 4095, 9)...), valueSeg(ints(0, 4096, 9)...), valueSeg(ints(1, 1, 1)...), plainSeg(ints(1, 2, 3)...), []byte{annsOne})
	if err := b.decode(sealBlock(plain), 3, nil, false); err != nil {
		t.Fatal(err)
	}
	want = []pvc.Span{{}, {}, {Base: 0, N: 4096}, {}, {Base: 1, N: 1}, {}}
	if !slices.Equal(b.Spans, want) {
		t.Errorf("spans over the same scratch %v, want %v", b.Spans, want)
	}

	// A scan's batch carries the spans of its projected columns.
	dir := t.TempDir()
	w, err := Create(dir, algebra.Boolean, vars.NewRegistry(), Options{BlockCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := w.CreateTable("t", pvc.Schema{{Name: "wide", Type: pvc.TValue}, {Name: "s", Type: pvc.TString}, {Name: "k", Type: pvc.TValue}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 8 {
		if err := tw.Append(nil, pvc.IntCell(int64(i)<<20), pvc.StringCell("x"), pvc.IntCell(int64(i-6))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := st.Table("t")
	sc, err := tab.NewScan(context.Background(), pvc.ScanOptions{Cols: []int{2, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for _, want := range [][]pvc.Span{{{Base: -6, N: 4}, {}, {}}, {{Base: -2, N: 4}, {}, {}}} {
		batch, ok, err := sc.(pvc.BatchIter).NextBatch()
		if err != nil || !ok {
			t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
		}
		if !slices.Equal(batch.Spans, want) {
			t.Errorf("scan spans %v, want %v", batch.Spans, want)
		}
	}
}

// TestBlockCapacityBoundsRowCount: a block's row count, which sizes a
// scan's vectors, is bounded by the manifest's block capacity and that
// by 2²⁰, since a packed block may hold fewer bytes than rows. Create
// refuses a larger capacity; Open refuses a manifest whose capacity is
// out of range or whose block holds more rows than it, as ErrCorrupt.
func TestBlockCapacityBoundsRowCount(t *testing.T) {
	if _, err := Create(t.TempDir(), algebra.Boolean, nil, Options{BlockCapacity: maxBlockCapacity + 1}); err == nil {
		t.Error("Create accepted a block capacity past 2²⁰")
	}
	dir := writeFixture(t, 40, 16)
	path := filepath.Join(dir, manifestName)
	manifest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ capacity, reason string }{
		{"0", "block capacity 0"},
		{"1048577", "block capacity 1048577"},
		{"15", "table items: block of 16 rows"},
	} {
		bad := bytes.Replace(manifest, []byte(`"block_capacity": 16`), []byte(`"block_capacity": `+c.capacity), 1)
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		var ce *CorruptError
		if !errors.As(err, &ce) || !strings.Contains(ce.Reason, c.reason) {
			t.Errorf("block capacity %s: %v, want a CorruptError naming %q", c.capacity, err, c.reason)
		}
	}
}

// ordSeg is the all-variable annotation segment of the variables of
// ordinals ords.
func ordSeg(ords ...uint64) []byte {
	anns := make([]expr.Expr, len(ords))
	for i, o := range ords {
		anns[i] = expr.V(strconv.FormatUint(o, 10))
	}
	return appendOrdinals(nil, anns, func(name string) uint64 {
		o, _ := strconv.ParseUint(name, 10, 64)
		return o
	})
}

// ints is finite values.
func ints(ns ...int64) []value.V {
	vs := make([]value.V, len(ns))
	for i, n := range ns {
		vs[i] = value.Int(n)
	}
	return vs
}

// BenchmarkDecodeValues decodes one 4 096-row value column, packed at
// width 20 and plain.
func BenchmarkDecodeValues(b *testing.B) {
	vals := make([]value.V, DefaultBlockCapacity)
	for i := range vals {
		vals[i] = value.Int(int64(i*7919%(1<<20)) - 1000)
	}
	lo, hi := slices.MinFunc(vals, value.V.Cmp), slices.MaxFunc(vals, value.V.Cmp)
	for _, c := range []struct {
		name string
		seg  []byte
	}{
		{"packed", appendValues(nil, vals, lo, hi)},
		{"plain", appendValues(nil, vals, value.NegInf(), hi)},
	} {
		b.Run(c.name, func(b *testing.B) {
			bv := newBlockVecs(pvc.Schema{{Name: "v", Type: pvc.TValue}})
			for b.Loop() {
				if err := bv.decodeValues(0, &reader{buf: c.seg}, len(vals)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/cell")
			if !slices.Equal(bv.Vals[0], vals) {
				b.Fatal("decoded column differs")
			}
		})
	}
}
