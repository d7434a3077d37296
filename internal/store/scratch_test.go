package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"pvcagg/internal/faultfs"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// wideCell is column c of row i of a writeWide table.
func wideCell(i, c int) int64 {
	if c == 15 {
		return int64(i % 10)
	}
	return int64(i*16 + c)
}

// wideScan is one open scan of a writeWide table and the rows, by index,
// it has still to return.
type wideScan struct {
	it   pvc.TupleIter
	cols []int
	want []int
}

// openWide opens a scan of tab, whose rows rows are writeWide's, under
// opts. Every hint must compare a column to a constant; the rows to
// expect are those whose cells satisfy every hint, computed from the
// table's known contents.
func openWide(tab *Table, rows int, opts pvc.ScanOptions) (*wideScan, error) {
	it, err := tab.NewScan(context.Background(), opts)
	if err != nil {
		return nil, err
	}
	s := &wideScan{it: it, cols: opts.Cols}
	if s.cols == nil {
		for c := 0; c < 16; c++ {
			s.cols = append(s.cols, c)
		}
	}
	for i := 0; i < rows; i++ {
		keep := true
		for _, h := range opts.Hints {
			keep = keep && pvc.IntCell(wideCell(i, h.Col)).Satisfies(h.Th, *h.Cell)
		}
		if keep {
			s.want = append(s.want, i)
		}
	}
	return s, nil
}

// step reads one row and checks its cells; it reports false once the
// scan has ended with every expected row returned.
func (s *wideScan) step() (bool, error) {
	tup, ok, err := s.it.Next()
	if err != nil {
		return false, err
	}
	if !ok {
		if len(s.want) > 0 {
			return false, fmt.Errorf("scan ended with %d rows to come, the next row %d", len(s.want), s.want[0])
		}
		return false, nil
	}
	if len(s.want) == 0 {
		return false, fmt.Errorf("scan returned a row past its end: %v", tup.Cells)
	}
	i := s.want[0]
	s.want = s.want[1:]
	if len(tup.Cells) != len(s.cols) || tup.Ann == nil {
		return false, fmt.Errorf("row %d: %d cells, annotation %v", i, len(tup.Cells), tup.Ann)
	}
	for o, c := range s.cols {
		if want := pvc.IntCell(wideCell(i, c)); tup.Cells[o] != want {
			return false, fmt.Errorf("row %d column %d: %v, want %v", i, c, tup.Cells[o], want)
		}
	}
	return true, nil
}

// steps reads up to n rows.
func (s *wideScan) steps(t *testing.T, n int) {
	t.Helper()
	for ; n > 0; n-- {
		more, err := s.step()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			return
		}
	}
}

// drainTogether reads the scans to their ends one row of each at a time,
// so that each decodes its blocks between the other's rows.
func drainTogether(t *testing.T, scans ...*wideScan) {
	t.Helper()
	for live := len(scans); live > 0; {
		live = 0
		for _, s := range scans {
			more, err := s.step()
			if err != nil {
				t.Fatal(err)
			}
			if more {
				live++
			}
		}
	}
	for _, s := range scans {
		if err := s.it.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func openWideT(t *testing.T, tab *Table, rows int, opts pvc.ScanOptions) *wideScan {
	t.Helper()
	s, err := openWide(tab, rows, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func hint(col int, th value.Theta, v int64) pvc.ScanHint {
	c := pvc.IntCell(v)
	return pvc.ScanHint{Col: col, Th: th, RightCol: -1, Cell: &c}
}

// TestScanScratchReuse holds scans that borrow the block buffer and
// vectors an earlier scan of the same table gave back to the table's
// known contents: the new scan decodes its own columns and hands out
// none of the earlier scan's rows, a closed scan keeps no hold on its
// scratch, and a scan that failed gives its scratch back once.
func TestScanScratchReuse(t *testing.T) {
	const blocks, perBlock = 6, 32
	const rows = blocks * perBlock
	tab := writeWide(t, blocks, perBlock)

	// A opens, B opens, A closes mid-scan, C borrows A's scratch with
	// other columns, hints and DropZero while B goes on.
	a := openWideT(t, tab, rows, pvc.ScanOptions{Cols: []int{0, 5, 15}, Hints: []pvc.ScanHint{hint(15, value.EQ, 3)}})
	b := openWideT(t, tab, rows, pvc.ScanOptions{Hints: []pvc.ScanHint{hint(0, value.GE, 64*16)}, DropZero: true})
	a.steps(t, 5)
	b.steps(t, 10)
	if err := a.it.Close(); err != nil {
		t.Fatal(err)
	}
	c := openWideT(t, tab, rows, pvc.ScanOptions{Cols: []int{14, 2}, Hints: []pvc.ScanHint{hint(7, value.LT, 100*16)}, DropZero: true})
	drainTogether(t, b, c)

	// A scan closed mid-block, then one that reads fewer columns.
	d := openWideT(t, tab, rows, pvc.ScanOptions{})
	d.steps(t, perBlock/2)
	if err := d.it.Close(); err != nil {
		t.Fatal(err)
	}
	e := openWideT(t, tab, rows, pvc.ScanOptions{Cols: []int{3}})
	drainTogether(t, e)

	// Next after Close reads nothing of the scratch it gave back.
	if tup, ok, err := e.it.Next(); ok || tup.Cells != nil || !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after Close = %v, %v, %v; want no row and ErrClosed", tup.Cells, ok, err)
	}
	if err := e.it.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// A permanent read fault on the second block ends the scan inside
	// Next; its scratch goes back there and not again at Close, so the
	// two scans opened next hold two scratches.
	failing := writeWide(t, blocks, perBlock)
	var plan faultfs.Plan
	plan.FailNth[faultfs.OpRead] = 2
	failing.st.fs = faultfs.NewInjector(faultfs.OS(), plan)
	f := openWideT(t, failing, rows, pvc.ScanOptions{})
	for {
		more, err := f.step()
		if err != nil {
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("scan error %v, want the injected fault", err)
			}
			break
		}
		if !more {
			t.Fatal("scan ended without the injected fault")
		}
	}
	if err := f.it.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := f.it.Next(); ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after a failed scan = %v, %v; want ErrClosed", ok, err)
	}
	failing.st.fs = faultfs.OS()
	g := openWideT(t, failing, rows, pvc.ScanOptions{Cols: []int{1, 9}})
	h := openWideT(t, failing, rows, pvc.ScanOptions{Cols: []int{12}, Hints: []pvc.ScanHint{hint(15, value.LE, 4)}})
	g.steps(t, perBlock+3)
	drainTogether(t, g, h)
}

// TestConcurrentScanScratch drains one table from 8 goroutines, 20 scans
// each under varying columns, hints and DropZero, so scratch passes
// between goroutines (run under -race in CI's storage job).
func TestConcurrentScanScratch(t *testing.T) {
	const blocks, perBlock = 6, 32
	tab := writeWide(t, blocks, perBlock)
	shapes := []pvc.ScanOptions{
		{},
		{Cols: []int{15, 0}, Hints: []pvc.ScanHint{hint(15, value.EQ, 7)}},
		{Cols: []int{4}, Hints: []pvc.ScanHint{hint(0, value.GE, 96*16)}, DropZero: true},
		{Cols: []int{2, 3, 11}, DropZero: true},
		{Cols: []int{8}, Hints: []pvc.ScanHint{hint(9, value.LT, 40*16)}},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				s, err := openWide(tab, blocks*perBlock, shapes[(g+k)%len(shapes)])
				if err != nil {
					errs <- err
					return
				}
				for more := true; more; {
					if more, err = s.step(); err != nil {
						s.it.Close()
						errs <- fmt.Errorf("goroutine %d scan %d: %w", g, k, err)
						return
					}
				}
				if err := s.it.Close(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
