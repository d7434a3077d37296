package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"pvcagg/internal/faultfs"
	"pvcagg/internal/pvc"
	"pvcagg/internal/testutil"
	"pvcagg/internal/value"
)

// readLog is a faultfs.FS whose files record every ReadAt: its offset,
// the goroutine that issued it, and whether another read of the same
// log was in flight at the time. Each read lingers a little, so reads
// that could overlap do.
type readLog struct {
	faultfs.FS
	mu       sync.Mutex
	inFlight int
	overlaps int
	offs     []int64
	gids     []uint64
}

type loggedFile struct {
	faultfs.File
	log *readLog
}

func (l *readLog) Open(name string) (faultfs.File, error) {
	f, err := l.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return loggedFile{f, l}, nil
}

func (f loggedFile) ReadAt(p []byte, off int64) (int, error) {
	l := f.log
	l.mu.Lock()
	if l.inFlight++; l.inFlight > 1 {
		l.overlaps++
	}
	l.offs = append(l.offs, off)
	l.gids = append(l.gids, goid())
	l.mu.Unlock()
	time.Sleep(50 * time.Microsecond)
	n, err := f.File.ReadAt(p, off)
	l.mu.Lock()
	l.inFlight--
	l.mu.Unlock()
	return n, err
}

// reset forgets the reads logged so far.
func (l *readLog) reset() {
	l.mu.Lock()
	l.offs, l.gids, l.overlaps = nil, nil, 0
	l.mu.Unlock()
}

// goid is the calling goroutine's id, read off its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// readAheadProcs runs the test with two Ps, so scans read ahead even on
// a one-CPU machine.
func readAheadProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestScanReadAheadIOOrder holds a scan that reads ahead to the I/O a
// scan that does not would issue: every read on the goroutine that
// drains the scan, one at a time, in ascending block order, exactly the
// blocks the zone maps do not skip — over full, hinted and projected
// scans drained row by row and batch by batch. A scan closed after its
// first batch has read at most one block past it.
func TestScanReadAheadIOOrder(t *testing.T) {
	readAheadProcs(t)
	const blocks, perBlock = 8, 64
	tab := writeWide(t, blocks, perBlock)
	log := &readLog{FS: faultfs.OS()}
	tab.st.fs = log
	for _, c := range []struct {
		name string
		opts pvc.ScanOptions
	}{
		{"full", pvc.ScanOptions{}},
		{"hinted", pvc.ScanOptions{Hints: []pvc.ScanHint{hint(0, value.GE, 2*perBlock*16), hint(15, value.LE, 6)}}},
		{"projected", pvc.ScanOptions{Cols: []int{9, 1}, Hints: []pvc.ScanHint{hint(3, value.LT, 5*perBlock*16)}}},
	} {
		sc, err := tab.NewScan(context.Background(), c.opts)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for bi, bm := range tab.meta.Blocks {
			if !sc.(*scanIter).skip(bi) {
				want = append(want, bm.Off)
			}
		}
		sc.Close()
		rows, _ := openWide(tab, blocks*perBlock, c.opts)
		rows.it.Close()
		if len(want) < 3 {
			t.Fatalf("%s: %d blocks survive the zone maps, want a scan that reads ahead", c.name, len(want))
		}
		for _, batched := range []bool{false, true} {
			log.reset()
			var n int
			if batched {
				n = drainBatches(t, tab, c.opts)
			} else {
				n = drainScan(t, tab, c.opts)
			}
			if n != len(rows.want) {
				t.Errorf("%s (batched %v): %d rows, want %d", c.name, batched, n, len(rows.want))
			}
			if !slices.Equal(log.offs, want) || log.overlaps != 0 {
				t.Errorf("%s (batched %v): reads at %v with %d overlapping, want one at a time at %v", c.name, batched, log.offs, log.overlaps, want)
			}
			for _, g := range log.gids {
				if g != goid() {
					t.Errorf("%s (batched %v): a read ran on goroutine %d, the scan drains on %d", c.name, batched, g, goid())
					break
				}
			}
		}
	}

	// Closed after its first batch, a scan has read that block and at
	// most the next.
	log.reset()
	sc, err := tab.NewScan(context.Background(), pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sc.(pvc.BatchIter).NextBatch(); !ok || err != nil {
		t.Fatalf("first batch: %v, %v", ok, err)
	}
	if sc.(*scanIter).next == nil {
		t.Error("an 8-block scan under two Ps does not read ahead")
	}
	sc.Close()
	if len(log.offs) > 2 {
		t.Errorf("a scan closed after its first batch read %d blocks, want at most 2", len(log.offs))
	}
}

// TestScanReadAheadStartsOnlyWhereItPays: a scan reads ahead only when
// at least two blocks survive the zone maps and GOMAXPROCS > 1.
func TestScanReadAheadStartsOnlyWhereItPays(t *testing.T) {
	readAheadProcs(t)
	const blocks, perBlock = 4, 16
	tab := writeWide(t, blocks, perBlock)
	for _, c := range []struct {
		name  string
		procs int
		opts  pvc.ScanOptions
		ahead bool
	}{
		{"every block, two Ps", 2, pvc.ScanOptions{}, true},
		{"one block left, two Ps", 2, pvc.ScanOptions{Hints: []pvc.ScanHint{hint(0, value.EQ, 17*16)}}, false},
		{"every block, one P", 1, pvc.ScanOptions{}, false},
	} {
		runtime.GOMAXPROCS(c.procs)
		sc, err := tab.NewScan(context.Background(), c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sc.Next(); err != nil {
			t.Fatal(err)
		}
		if ahead := sc.(*scanIter).next != nil; ahead != c.ahead {
			t.Errorf("%s: reads ahead %v, want %v", c.name, ahead, c.ahead)
		}
		sc.Close()
	}
}

// TestScanReadAheadJoinsHelper: the helper goroutine is gone after an
// early Close, after a cancellation the scan surfaced, and after a
// corrupt block it surfaced, each after every row of the blocks before.
func TestScanReadAheadJoinsHelper(t *testing.T) {
	readAheadProcs(t)
	const blocks, perBlock = 6, 32
	tab := writeWide(t, blocks, perBlock)

	t.Run("early close", func(t *testing.T) {
		check := testutil.CheckGoroutines(t)
		s := openWideT(t, tab, blocks*perBlock, pvc.ScanOptions{})
		s.steps(t, perBlock+3)
		if err := s.it.Close(); err != nil {
			t.Fatal(err)
		}
		check()
	})

	t.Run("cancel", func(t *testing.T) {
		check := testutil.CheckGoroutines(t)
		ctx, cancel := context.WithCancel(context.Background())
		sc, err := tab.NewScan(ctx, pvc.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		it := sc.(pvc.BatchIter)
		if _, ok, err := it.NextBatch(); !ok || err != nil {
			t.Fatalf("first batch: %v, %v", ok, err)
		}
		cancel()
		if _, _, err := it.NextBatch(); !errors.Is(err, context.Canceled) {
			t.Fatalf("batch after cancel: %v, want context.Canceled", err)
		}
		check()
	})

	t.Run("corrupt block", func(t *testing.T) {
		check := testutil.CheckGoroutines(t)
		bad := writeWide(t, blocks, perBlock)
		path := filepath.Join(bad.st.dir, bad.meta.File)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bm := bad.meta.Blocks[3]
		buf[bm.Off+int64(bm.Len)/2] ^= 0xff
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openWideT(t, bad, blocks*perBlock, pvc.ScanOptions{})
		defer s.it.Close()
		rows := 0
		for {
			more, err := s.step()
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("scan error %v, want ErrCorrupt", err)
				}
				break
			}
			if !more {
				t.Fatal("scan ended without the corrupt block")
			}
			rows++
		}
		if rows != 3*perBlock {
			t.Errorf("%d rows before the corrupt block 3, want %d", rows, 3*perBlock)
		}
		check()
	})
}
