package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// memFile serves a block file image from memory.
type memFile []byte

func (m memFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(m)) {
		return 0, io.EOF
	}
	n := copy(p, m[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
func (m memFile) Write([]byte) (int, error) { return 0, errors.New("memFile: read-only") }
func (m memFile) Close() error              { return nil }

// fuzzFixture writes a three-block table with every cell and annotation
// encoding in it and returns the opened table with its raw blocks.
func fuzzFixture(tb testing.TB) (*Table, [][]byte) {
	tb.Helper()
	dir := tb.TempDir()
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("y", 0.5)
	w, err := Create(dir, algebra.Natural, reg, Options{BlockCapacity: 5})
	if err != nil {
		tb.Fatal(err)
	}
	tw, err := w.CreateTable("f", pvc.Schema{
		{Name: "id", Type: pvc.TValue}, {Name: "name", Type: pvc.TString}, {Name: "w", Type: pvc.TValue},
	})
	if err != nil {
		tb.Fatal(err)
	}
	anns := []expr.Expr{expr.CInt(1), expr.CInt(0), expr.CInt(7), expr.V("x"), expr.MustParse("x*y"), expr.V("y")}
	ws := []value.V{value.Int(-3), value.PosInf(), value.NegInf(), value.Int(1 << 40)}
	for i := 0; i < 13; i++ {
		name := pvc.StringCell([]string{"", "a", "M&S", "longer name"}[i%4])
		if err := tw.Append(anns[i%len(anns)], pvc.IntCell(int64(i)), name, pvc.ValueCell(ws[i%len(ws)])); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	tab, _ := st.Table("f")
	img, err := os.ReadFile(filepath.Join(dir, tab.meta.File))
	if err != nil {
		tb.Fatal(err)
	}
	var blocks [][]byte
	for _, bm := range tab.meta.Blocks {
		blocks = append(blocks, img[bm.Off:bm.Off+int64(bm.Len)])
	}
	return tab, blocks
}

// sealBlock returns body with its CRC trailer.
func sealBlock(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// blockBody assembles the body of a block of rows rows, without its
// CRC, from its column segments and its annotation segment (last).
func blockBody(rows int, segs ...[]byte) []byte {
	body := binary.AppendUvarint(binary.AppendUvarint([]byte(blockMagic), uint64(rows)), uint64(len(segs)-1))
	for _, seg := range segs {
		body = append(binary.AppendUvarint(body, uint64(len(seg))), seg...)
	}
	return body
}

// fixtureBody is the body of a block of the fuzz fixture's schema (id,
// name, w) over names, its string column coded when the writer would
// code it, every row annotated 1.
func fixtureBody(names ...string) []byte {
	var ids, ws, anns []byte
	for i := range names {
		ids = appendValue(ids, value.Int(int64(i)))
		ws = appendValue(ws, value.Int(int64(-i)))
		anns = append(anns, annOne)
	}
	var d dictCoder
	return blockBody(len(names), ids, d.appendColumn(nil, names), ws, anns)
}

// twoBlocks is a table of a fixture's schema over an in-memory file
// holding a valid block of the fixture followed by a block under test.
type twoBlocks struct {
	t    *Table
	file memFile
}

// newTwoBlocks indexes second as holding rows rows.
func newTwoBlocks(tab *Table, first, second []byte, rows int) *twoBlocks {
	meta := *tab.meta
	meta.Blocks = []blockMeta{
		{Rows: tab.meta.Blocks[0].Rows, Off: 0, Len: len(first)},
		{Rows: rows, Off: int64(len(first)), Len: len(second)},
	}
	two := &Table{st: tab.st, meta: &meta, schema: tab.schema,
		mins: [][]pvc.Cell{tab.mins[0], tab.mins[0]}, maxs: [][]pvc.Cell{tab.maxs[0], tab.maxs[0]}}
	return &twoBlocks{t: two, file: memFile(append(append([]byte(nil), first...), second...))}
}

// scan opens a scan of columns 2, 1, 0 that borrows its scratch from the
// table as NewScan does, so a scan opened after another closed decodes
// into the vectors that one left behind.
func (tb *twoBlocks) scan() *scanIter {
	cols := []int{2, 1, 0}
	return &scanIter{
		ctx: context.Background(), t: tb.t, f: tb.file, size: int64(len(tb.file)),
		retry: NewRetryState(RetryPolicy{MaxAttempts: 1}), cols: cols,
		blk: tb.t.borrow(cols, nil), row: make([]pvc.Cell, len(cols)),
	}
}

// TestTooDeepAnnotationIsCorrupt: a CRC-valid block whose annotation
// record is a million nested parentheses — which used to kill the process
// in expr.Parse — scans to ErrCorrupt after the rows of the block before
// it, with an error that does not echo the record.
func TestTooDeepAnnotationIsCorrupt(t *testing.T) {
	tab, blocks := fuzzFixture(t)
	deep := strings.Repeat("(", 1_000_000) + "x" + strings.Repeat(")", 1_000_000)
	if _, err := expr.Parse(deep); !errors.Is(err, expr.ErrTooDeep) {
		t.Fatalf("expr.Parse: %v, want ErrTooDeep", err)
	}
	body := blockBody(1, appendValue(nil, value.Int(1)), appendString([]byte{strPlain}, "a"), appendValue(nil, value.Int(2)),
		appendString([]byte{annExpr}, deep))
	it := newTwoBlocks(tab, blocks[0], sealBlock(body), 1).scan()
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "nested") {
				t.Fatalf("scan error %v, want ErrCorrupt naming the nesting", err)
			}
			if len(err.Error()) > 500 {
				t.Errorf("error of %d bytes echoes the record", len(err.Error()))
			}
			break
		}
		if !ok {
			t.Fatal("scan ended without an error")
		}
		n++
	}
	if want := tab.meta.Blocks[0].Rows; n != want {
		t.Errorf("%d rows before the corrupt block, want %d", n, want)
	}
}

// FuzzReadBlock holds the block decoder to its contract on hostile
// bytes: the body of a valid PVB2 block — plain or dictionary-coded
// strings — is mutated and its CRC
// recomputed, so the checksum does not shield the decoder. A scan over
// [a valid block, the mutated block] must return the valid block's rows
// and then either rows of the right shape or an ErrCorrupt — never a
// panic, never memory out of proportion to the block, and after a failed
// decode never a row or a batch more (the vectors still hold the previous
// block). Each input is scanned three times on one table, each scan
// borrowing the scratch the one before gave back after its rows or its
// ErrCorrupt: twice row by row (Next) and once batch by batch
// (NextBatch), and all three must return the same rows and the same
// error.
func FuzzReadBlock(f *testing.F) {
	tab, blocks := fuzzFixture(f)
	for bi, b := range blocks {
		f.Add(b[:len(b)-4], uint16(tab.meta.Blocks[bi].Rows))
	}
	f.Add([]byte(blockMagic), uint16(0))
	// Coded name columns: two strings, one (the empty string), and the
	// fixture's four in eight rows.
	for _, names := range [][]string{
		{"a", "M&S", "a", "a", "M&S", "a"},
		{"", "", "", ""},
		{"longer name", "", "a", "M&S", "a", "", "longer name", "M&S"},
	} {
		f.Add(fixtureBody(names...), uint16(len(names)))
	}
	first := blocks[0]
	f.Fuzz(func(t *testing.T, body []byte, rows uint16) {
		mutated := sealBlock(body)
		tb := newTwoBlocks(tab, first, mutated, int(rows))
		// run drains one scan, row by row or batch by batch, and returns
		// its row count, a digest of its rows' keys and its error.
		run := func(batched bool) (int, uint64, error) {
			it := tb.scan()
			defer it.Close()
			var (
				b     *pvc.Batch
				k     int
				cells []pvc.Cell
			)
			next := func() (pvc.Tuple, bool, error) {
				if !batched {
					return it.Next()
				}
				for b == nil || k == len(b.Sel) {
					var ok bool
					var err error
					if b, ok, err = it.NextBatch(); err != nil || !ok {
						return pvc.Tuple{}, false, err
					}
					if len(b.Sel) == 0 {
						t.Fatal("NextBatch returned an empty batch")
					}
					k = 0
				}
				i := int(b.Sel[k])
				k++
				cells = cells[:0]
				for c := range b.Vals {
					cells = append(cells, b.Cell(c, i))
				}
				return pvc.Tuple{Cells: cells, Ann: b.Anns[i]}, true, nil
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n := 0
			digest := fnv.New64a()
			var scanErr error
			for {
				tup, ok, err := next()
				if err != nil {
					scanErr = err
					break
				}
				if !ok {
					break
				}
				n++
				if tup.Cells[0].Kind() != pvc.KindValue || tup.Cells[1].Kind() != pvc.KindString || tup.Cells[2].Kind() != pvc.KindValue || tup.Ann == nil {
					t.Fatalf("row %d has the wrong shape: %v %v", n, tup.Cells, tup.Ann)
				}
				io.WriteString(digest, tup.Key())
			}
			runtime.ReadMemStats(&after)
			if limit := uint64(1<<20 + 1024*len(mutated)); after.TotalAlloc-before.TotalAlloc > limit {
				t.Errorf("scan of a %d-byte block allocated %d bytes", len(mutated), after.TotalAlloc-before.TotalAlloc)
			}
			want := tab.meta.Blocks[0].Rows
			if scanErr == nil {
				want += int(rows)
			} else if !errors.Is(scanErr, ErrCorrupt) {
				t.Fatalf("scan error is not ErrCorrupt: %v", scanErr)
			} else if _, ok, err := it.Next(); ok || !errors.Is(err, ErrClosed) {
				t.Fatalf("Next after a corrupt block: ok=%v err=%v", ok, err)
			} else if b, ok, err := it.NextBatch(); ok || b != nil || !errors.Is(err, ErrClosed) {
				t.Fatalf("NextBatch after a corrupt block: ok=%v err=%v", ok, err)
			}
			if n != want {
				t.Fatalf("scan returned %d rows, want %d (err %v)", n, want, scanErr)
			}
			return n, digest.Sum64(), scanErr
		}
		n1, d1, err1 := run(false)
		for _, batched := range []bool{false, true} {
			n2, d2, err2 := run(batched)
			if n1 != n2 || d1 != d2 || fmt.Sprint(err1) != fmt.Sprint(err2) {
				t.Fatalf("scan (batched %v) over the scratch of an earlier scan: %d rows (digest %x, err %v), first scan %d rows (digest %x, err %v)", batched, n2, d2, err2, n1, d1, err1)
			}
		}
	})
}
