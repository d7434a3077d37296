package store

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/engine"
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

// drainBatches runs one scan to exhaustion batch by batch and returns
// the rows its selections named.
func drainBatches(tb testing.TB, tab *Table, opts pvc.ScanOptions) int {
	sc, err := tab.NewScan(context.Background(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	defer sc.Close()
	it := sc.(pvc.BatchIter)
	n := 0
	for {
		b, ok, err := it.NextBatch()
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			return n
		}
		n += len(b.Sel)
	}
}

// TestScanAllocsPerBlock pins the allocation shape of a scan: draining
// an all-integer table costs a fixed number of allocations per scan and
// per block, and none per row — eight times the rows in the same number
// of blocks allocate no more. In bytes, a scan borrows its block buffer
// and vectors from the table, so once a first scan has sized them a
// repeat scan allocates less than one block, with read-ahead or
// without, and after garbage collections too; the table keeps no more
// scratches than its bound.
func TestScanAllocsPerBlock(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const blocks = 12
	drain := func(tab *Table, rows int) {
		if n := drainScan(t, tab, pvc.ScanOptions{}); n != rows {
			t.Fatalf("scanned %d rows, want %d", n, rows)
		}
	}
	allocs := func(tab *Table, perBlock int) float64 {
		return testing.AllocsPerRun(5, func() { drain(tab, blocks*perBlock) })
	}
	smallTab, largeTab := writeWide(t, blocks, 32), writeWide(t, blocks, 256)
	small, large := allocs(smallTab, 32), allocs(largeTab, 256)
	t.Logf("allocations per scan of %d blocks: %.0f at 32 rows a block, %.0f at 256", blocks, small, large)
	if large > small+2 {
		t.Errorf("allocations grow with rows: %.0f for %d rows, %.0f for %d", small, blocks*32, large, blocks*256)
	}
	if limit := float64(40 + 4*blocks); large > limit {
		t.Errorf("%.0f allocations for a %d-block scan, want at most %.0f", large, blocks, limit)
	}

	// A repeat scan borrows the scratches an earlier one gave back, with
	// one P (inline) and with two (read-ahead), also after two garbage
	// collections, which do not empty the table's free list.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	block := uint64(largeTab.meta.Blocks[0].Len)
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		const scans = 20
		drain(largeTab, blocks*256)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < scans; i++ {
			drain(largeTab, blocks*256)
		}
		runtime.ReadMemStats(&after)
		perScan := (after.TotalAlloc - before.TotalAlloc) / scans
		t.Logf("%d Ps: bytes per repeat scan: %d (a block is %d)", procs, perScan, block)
		if perScan >= block {
			t.Errorf("%d Ps: a repeat scan allocated %d bytes, want less than one %d-byte block", procs, perScan, block)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		drain(largeTab, blocks*256)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= block {
			t.Errorf("%d Ps: a scan after two GCs allocated %d bytes, want less than one %d-byte block", procs, got, block)
		}
	}

	// However many scans give their scratches back, the free list keeps
	// at most two per P: six scans reading ahead under two Ps return
	// twelve, and the list keeps four.
	var open []pvc.TupleIter
	for i := 0; i < 6; i++ {
		it, err := largeTab.NewScan(context.Background(), pvc.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
		open = append(open, it)
	}
	for _, it := range open {
		it.Close()
	}
	if n, bound := len(largeTab.scratch.free), 2*runtime.GOMAXPROCS(0); n != bound {
		t.Errorf("free list holds %d scratches after %d scans closed, want its bound %d", n, len(open), bound)
	}
}

// TestBatchDrainAllocsPerBlock pins the allocation shape of the batch
// path: a scan drained batch by batch costs a fixed number of
// allocations per scan and per block, and a $ over a store scan — its σ
// discharged into the scan, its groups filed from the batch vectors —
// none per row: eight times the rows in the same number of blocks
// allocate no more.
func TestBatchDrainAllocsPerBlock(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const blocks = 12
	smallTab, largeTab := writeWide(t, blocks, 32), writeWide(t, blocks, 256)
	flat := func(what string, allocs func(tab *Table, rows int) float64) {
		t.Helper()
		small, large := allocs(smallTab, blocks*32), allocs(largeTab, blocks*256)
		t.Logf("%s: %.0f allocations over %d blocks at 32 rows a block, %.0f at 256", what, small, blocks, large)
		if large > small+2 {
			t.Errorf("%s: allocations grow with rows: %.0f for %d rows, %.0f for %d", what, small, blocks*32, large, blocks*256)
		}
	}
	flat("batch drain", func(tab *Table, rows int) float64 {
		n := testing.AllocsPerRun(5, func() {
			if n := drainBatches(t, tab, pvc.ScanOptions{}); n != rows {
				t.Fatalf("drained %d rows, want %d", n, rows)
			}
		})
		if limit := float64(40 + 4*blocks); n > limit {
			t.Errorf("%.0f allocations for a %d-block batch drain, want at most %.0f", n, blocks, limit)
		}
		return n
	})
	// COUNT and SUM grouped by the cycling column, under a σ on it that
	// keeps nine groups of ten.
	plan := &engine.GroupAgg{
		Input:   &engine.Select{Input: &engine.Scan{Table: "wide"}, Pred: engine.Where(engine.ColTheta("c15", value.GE, pvc.IntCell(1)))},
		GroupBy: []string{"c15"},
		Aggs:    []engine.AggSpec{{Out: "n", Agg: algebra.Count}, {Out: "s", Agg: algebra.Sum, Over: "c00"}},
	}
	flat("$ over σ over a scan", func(tab *Table, rows int) float64 {
		db := pvc.NewDatabase(algebra.Boolean)
		db.AddProvider(tab)
		return testing.AllocsPerRun(5, func() {
			rel, _, err := engine.StreamEvalPlan(context.Background(), db, plan)
			if err != nil {
				t.Fatal(err)
			}
			if len(rel.Tuples) != 9 {
				t.Fatalf("%d groups, want 9", len(rel.Tuples))
			}
		})
	})

	// EXPLAIN ANALYZE runs the same batch path: σ and the scan are pulled
	// once per block (and once more for the end), and each reports the
	// rows its batches selected.
	db := pvc.NewDatabase(algebra.Boolean)
	db.AddProvider(largeTab)
	_, _, ex, err := engine.StreamEvalPlanExplain(context.Background(), db, plan)
	if err != nil {
		t.Fatal(err)
	}
	for n := ex.Children[0]; ; n = n.Children[0] {
		if n.NextCalls != blocks+1 || n.ActualRows != blocks*256*9/10 {
			t.Errorf("%s: %d pulls for %d rows, want %d pulls for %d", n.Op, n.NextCalls, n.ActualRows, blocks+1, blocks*256*9/10)
		}
		if len(n.Children) == 0 {
			break
		}
	}
}

// BenchmarkScanDrain is the kernel benchmark of the read path: one scan
// of a 64-block, 16-column integer table drained to exhaustion — in
// full, under a hint one row in ten satisfies (every block is still
// read), and projected to three of the sixteen columns — row by row
// (Next) and, in the -batches cases, batch by batch (NextBatch). MB/s
// are over the bytes a scan reads, which are the same in all six.
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
		for _, d := range []struct {
			suffix string
			drain  func(testing.TB, *Table, pvc.ScanOptions) int
		}{{"", drainScan}, {"-batches", drainBatches}} {
			b.Run(bc.name+d.suffix, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(bytes)
				for i := 0; i < b.N; i++ {
					if n := d.drain(b, tab, bc.opts); n != bc.rows {
						b.Fatalf("scanned %d rows, want %d", n, bc.rows)
					}
				}
			})
		}
	}
}
