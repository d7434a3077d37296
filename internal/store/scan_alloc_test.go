package store

import (
	"context"
	"fmt"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/pvc"
	"pvcagg/internal/testutil"
	"pvcagg/internal/value"
)

// writeWide builds "wide": blocks × perBlock rows of 16 integer columns.
// Column c of row i holds i·16+c, so zone maps are tight — except the
// last column, which cycles 0…9 inside every block: a hint on it keeps
// one row in ten and skips no block.
func writeWide(tb testing.TB, blocks, perBlock int) *Table {
	tb.Helper()
	dir := tb.TempDir()
	w, err := Create(dir, algebra.Boolean, nil, Options{BlockCapacity: perBlock})
	if err != nil {
		tb.Fatal(err)
	}
	var schema pvc.Schema
	for c := 0; c < 16; c++ {
		schema = append(schema, pvc.Col{Name: fmt.Sprintf("c%02d", c), Type: pvc.TValue})
	}
	tw, err := w.CreateTable("wide", schema)
	if err != nil {
		tb.Fatal(err)
	}
	cells := make([]pvc.Cell, len(schema))
	for i := 0; i < blocks*perBlock; i++ {
		for c := 0; c < 15; c++ {
			cells[c] = pvc.IntCell(int64(i*16 + c))
		}
		cells[15] = pvc.IntCell(int64(i % 10))
		if err := tw.Append(nil, cells...); err != nil {
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
	tab, _ := st.Table("wide")
	return tab
}

// drainScan runs one scan to exhaustion and returns the rows it saw.
func drainScan(tb testing.TB, tab *Table, opts pvc.ScanOptions) int {
	it, err := tab.NewScan(context.Background(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	defer it.Close()
	n := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			return n
		}
		n++
	}
}

// TestScanAllocsPerBlock pins the allocation shape of a scan: draining
// an all-integer table costs a fixed number of allocations per scan and
// per block, and none per row — eight times the rows in the same number
// of blocks allocate no more.
func TestScanAllocsPerBlock(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const blocks = 12
	allocs := func(perBlock int) float64 {
		tab := writeWide(t, blocks, perBlock)
		return testing.AllocsPerRun(5, func() {
			if n := drainScan(t, tab, pvc.ScanOptions{}); n != blocks*perBlock {
				t.Fatalf("scanned %d rows, want %d", n, blocks*perBlock)
			}
		})
	}
	small, large := allocs(32), allocs(256)
	t.Logf("allocations per scan of %d blocks: %.0f at 32 rows a block, %.0f at 256", blocks, small, large)
	if large > small+2 {
		t.Errorf("allocations grow with rows: %.0f for %d rows, %.0f for %d", small, blocks*32, large, blocks*256)
	}
	if limit := float64(40 + 4*blocks); large > limit {
		t.Errorf("%.0f allocations for a %d-block scan, want at most %.0f", large, blocks, limit)
	}
}

// BenchmarkScanDrain is the kernel benchmark of the read path: one scan
// of a 64-block, 16-column integer table drained to exhaustion — in
// full, under a hint one row in ten satisfies (every block is still
// read), and projected to three of the sixteen columns. MB/s are over
// the bytes a scan reads, which are the same in all three.
func BenchmarkScanDrain(b *testing.B) {
	const blocks, perBlock = 64, 1024
	tab := writeWide(b, blocks, perBlock)
	var bytes int64
	for _, bm := range tab.meta.Blocks {
		bytes += int64(bm.Len)
	}
	zero := pvc.IntCell(0)
	for _, bc := range []struct {
		name string
		opts pvc.ScanOptions
		rows int
	}{
		{"full", pvc.ScanOptions{}, blocks * perBlock},
		{"selective-10pct", pvc.ScanOptions{Hints: []pvc.ScanHint{{Col: 15, Th: value.EQ, RightCol: -1, Cell: &zero}}}, (blocks*perBlock + 9) / 10},
		{"three-of-sixteen", pvc.ScanOptions{Cols: []int{0, 7, 15}}, blocks * perBlock},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				if n := drainScan(b, tab, bc.opts); n != bc.rows {
					b.Fatalf("scanned %d rows, want %d", n, bc.rows)
				}
			}
		})
	}
}
