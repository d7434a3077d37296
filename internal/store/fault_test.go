package store

import (
	"context"
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/faultfs"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
	"pvcagg/internal/testutil"
	"pvcagg/internal/vars"
)

// fastRetry keeps fault tests quick: same shape as the default policy,
// microsecond backoff.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, Budget: 256, BaseDelay: 10 * time.Microsecond, MaxDelay: 100 * time.Microsecond}
}

// openFaulty opens a fixture store cleanly, then swaps in an injector so
// the faults hit only scan-time operations, not the manifest load.
func openFaulty(t *testing.T, dir string, plan faultfs.Plan) *Store {
	t.Helper()
	st, err := OpenFS(dir, faultfs.OS())
	if err != nil {
		t.Fatal(err)
	}
	st.fs = faultfs.NewInjector(faultfs.OS(), plan)
	return st
}

func TestRetryTransientRecovers(t *testing.T) {
	dir := writeFixture(t, 100, 16)
	var plan faultfs.Plan
	plan.FailNth[faultfs.OpRead] = 1 // first block read blips once
	plan.Transient = true
	st := openFaulty(t, dir, plan)
	tab, _ := st.Table("items")

	retry := NewRetryState(fastRetry())
	ctx := ContextWithRetry(context.Background(), retry)
	it, err := tab.NewScan(ctx, pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if got := collect(t, it); len(got) != 100 {
		t.Fatalf("scanned %d rows under transient faults, want 100", len(got))
	}
	stats := retry.Snapshot()
	if stats.Attempts != 1 || stats.Retries != 1 || stats.Exhausted != 0 {
		t.Errorf("stats = %+v, want 1 attempt, 1 retry, 0 exhausted", stats)
	}
	if err := st.Healthy(); err != nil {
		t.Errorf("store unhealthy after recovered blip: %v", err)
	}
}

func TestRetryExhaustionPartial(t *testing.T) {
	dir := writeFixture(t, 100, 16)
	var plan faultfs.Plan
	plan.FailProb[faultfs.OpRead] = 1 // every read fails, transiently
	plan.Transient = true
	st := openFaulty(t, dir, plan)
	tab, _ := st.Table("items")

	// Three scans fail terminally; the third trips the sticky health
	// signal.
	for i := 0; i < stickyFailureThreshold; i++ {
		retry := NewRetryState(fastRetry())
		ctx := ContextWithRetry(context.Background(), retry)
		it, err := tab.NewScan(ctx, pvc.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = it.Next()
		if err == nil {
			t.Fatal("Next succeeded with every read failing")
		}
		if !errors.Is(err, ErrPartial) {
			t.Fatalf("err = %v, want ErrPartial", err)
		}
		var pe *PartialError
		if !errors.As(err, &pe) || pe.Table != "items" || pe.Block != 0 {
			t.Fatalf("err = %#v, want *PartialError for items block 0", err)
		}
		if !IsTransient(err) {
			t.Errorf("exhausted transient error lost its classification: %v", err)
		}
		stats := retry.Snapshot()
		if stats.Exhausted != 1 || stats.Retries != int64(fastRetry().MaxAttempts-1) {
			t.Errorf("stats = %+v, want 1 exhausted after %d retries", stats, fastRetry().MaxAttempts-1)
		}
		// The failed iterator is dead: Next reports closed, Close is a
		// no-op, and both are idempotent.
		if _, _, err := it.Next(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Next after failure = %v, want ErrClosed", err)
		}
		if err := it.Close(); err != nil {
			t.Fatalf("Close after failure: %v", err)
		}
	}
	if err := st.Healthy(); err == nil {
		t.Errorf("Healthy() = nil after %d consecutive terminal failures", stickyFailureThreshold)
	}

	// A successful read clears the sticky signal.
	st.fs = faultfs.OS()
	it, err := tab.NewScan(context.Background(), pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, it)
	if err := st.Healthy(); err != nil {
		t.Errorf("Healthy() = %v after recovery, want nil", err)
	}
}

func TestRetryBudget(t *testing.T) {
	dir := writeFixture(t, 20, 16)
	var plan faultfs.Plan
	plan.FailProb[faultfs.OpRead] = 1
	plan.Transient = true
	st := openFaulty(t, dir, plan)
	tab, _ := st.Table("items")

	// A budget of 1 permits one retry total, even with a generous
	// per-operation attempt cap.
	retry := NewRetryState(RetryPolicy{MaxAttempts: 10, Budget: 1, BaseDelay: 10 * time.Microsecond, MaxDelay: 100 * time.Microsecond})
	ctx := ContextWithRetry(context.Background(), retry)
	it, err := tab.NewScan(ctx, pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if _, _, err := it.Next(); !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial", err)
	}
	stats := retry.Snapshot()
	if stats.Retries != 1 || stats.Exhausted != 1 {
		t.Errorf("stats = %+v, want exactly 1 retry before budget exhaustion", stats)
	}
}

// writeZeroFixture builds a table whose every row is annotated 0S, so
// every block's annotation summary is AllZero — the provably boundable
// case for degraded skips.
func writeZeroFixture(t *testing.T, rows, capacity int) string {
	t.Helper()
	dir := t.TempDir()
	w, err := Create(dir, algebra.Boolean, nil, Options{BlockCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := w.CreateTable("zeros", pvc.Schema{{Name: "id", Type: pvc.TValue}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tw.Append(expr.CInt(0), pvc.IntCell(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestBoundedSkipAllZero(t *testing.T) {
	dir := writeZeroFixture(t, 32, 8) // 4 blocks, all AllZero
	var plan faultfs.Plan
	plan.FailProb[faultfs.OpRead] = 1
	plan.Transient = true

	// With bounded skips allowed, the scan degrades instead of failing:
	// every unreadable block is provably all-zero, so the (empty) result
	// only omits confidence-0 tuples.
	st := openFaulty(t, dir, plan)
	tab, _ := st.Table("zeros")
	pol := fastRetry()
	pol.AllowBoundedSkip = true
	retry := NewRetryState(pol)
	ctx := ContextWithRetry(context.Background(), retry)
	it, err := tab.NewScan(ctx, pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, it); len(got) != 0 {
		t.Fatalf("degraded scan returned %d rows, want 0", len(got))
	}
	stats := retry.Snapshot()
	if stats.BoundedBlocks != int64(tab.Blocks()) {
		t.Errorf("BoundedBlocks = %d, want %d", stats.BoundedBlocks, tab.Blocks())
	}
	if err := st.Healthy(); err != nil {
		t.Errorf("bounded skips must not trip health: %v", err)
	}

	// Without the policy bit the same damage is a partial failure.
	st2 := openFaulty(t, dir, plan)
	tab2, _ := st2.Table("zeros")
	it2, err := tab2.NewScan(ContextWithRetry(context.Background(), NewRetryState(fastRetry())), pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it2.Close()
	if _, _, err := it2.Next(); !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial without AllowBoundedSkip", err)
	}
}

// TestCrashRecoveryRandomized kills an ingest at each of the first 20
// write points and asserts the manifest-last contract: the directory
// either refuses to open (no committed manifest — never a half-loaded
// store) or opens fully consistent with everything the ingest wrote.
func TestCrashRecoveryRandomized(t *testing.T) {
	const rows = 20
	ingest := func(dir string, fsys faultfs.FS) error {
		reg := vars.NewRegistry()
		w, err := CreateFS(dir, fsys, algebra.Boolean, reg, Options{BlockCapacity: 4})
		if err != nil {
			return err
		}
		tw, err := w.CreateTable("items", pvc.Schema{{Name: "id", Type: pvc.TValue}})
		if err != nil {
			return err
		}
		for i := 0; i < rows; i++ {
			ann := expr.V(reg.Fresh("t", prob.Bernoulli(0.5)))
			if err := tw.Append(ann, pvc.IntCell(int64(i))); err != nil {
				return err
			}
		}
		return w.Close()
	}
	sawCrash, sawCommit := false, false
	for kill := int64(1); kill <= 20; kill++ {
		dir := t.TempDir()
		in := faultfs.NewInjector(faultfs.OS(), faultfs.Plan{CrashNth: kill})
		ingErr := ingest(dir, in)
		st, openErr := Open(dir)
		if openErr != nil {
			sawCrash = true
			if ingErr == nil {
				t.Errorf("kill %d: ingest reported success but the store does not open: %v", kill, openErr)
			}
			// The refusal must be the clean no-manifest case, never a
			// half-committed corrupt store.
			var ce *CorruptError
			if errors.As(openErr, &ce) {
				t.Errorf("kill %d: crashed ingest left a corrupt (partially committed) store: %v", kill, openErr)
			}
			continue
		}
		// The store opened: the ingest must have committed in full.
		sawCommit = true
		if ingErr != nil {
			t.Errorf("kill %d: store opened but ingest reported failure: %v", kill, ingErr)
		}
		tab, ok := st.Table("items")
		if !ok || tab.Rows() != rows {
			t.Fatalf("kill %d: committed store missing data", kill)
		}
		it, err := tab.NewScan(context.Background(), pvc.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tuples := collect(t, it)
		if len(tuples) != rows {
			t.Fatalf("kill %d: scanned %d rows, want %d", kill, len(tuples), rows)
		}
		for i, tup := range tuples {
			if got := tup.Cells[0].String(); got != fmt.Sprint(i) {
				t.Errorf("kill %d: row %d: id = %s", kill, i, got)
			}
			if got, want := expr.String(tup.Ann), fmt.Sprintf("t%d", i); got != want {
				t.Errorf("kill %d: row %d: ann = %s, want %s", kill, i, got, want)
			}
			if !st.Registry().Has(fmt.Sprintf("t%d", i)) {
				t.Errorf("kill %d: variable t%d missing from registry", kill, i)
			}
		}
	}
	if !sawCrash || !sawCommit {
		t.Errorf("kill sweep covered crash=%v commit=%v, want both regimes", sawCrash, sawCommit)
	}
}

// TestScanFDHygiene runs a thousand scans through every termination path
// — context cancellation, early Close, natural exhaustion — and asserts
// the process's fd count does not creep.
func TestScanFDHygiene(t *testing.T) {
	dir := writeFixture(t, 100, 4) // 25 blocks
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := st.Table("items")
	before := testutil.OpenFDs(t)
	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		it, err := tab.NewScan(ctx, pvc.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := it.Next(); err != nil || !ok {
			t.Fatalf("scan %d: first Next: ok=%v err=%v", i, ok, err)
		}
		switch i % 3 {
		case 0: // cancelled mid-scan: Next observes ctx and releases
			cancel()
			// The already-decoded batch still drains; the next block
			// boundary observes the cancellation.
			var err error
			for err == nil {
				_, _, err = it.Next()
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("scan %d: err = %v, want context.Canceled", i, err)
			}
			if err := it.Close(); err != nil {
				t.Fatalf("scan %d: Close after cancel: %v", i, err)
			}
		case 1: // abandoned early: Close releases, twice is a no-op
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if err := it.Close(); err != nil {
				t.Fatalf("scan %d: second Close: %v", i, err)
			}
			if _, _, err := it.Next(); !errors.Is(err, ErrClosed) {
				t.Fatalf("scan %d: Next after Close = %v, want ErrClosed", i, err)
			}
		default: // drained: exhaustion releases before Close
			collect(t, it)
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
		}
		cancel()
	}
	after := testutil.OpenFDs(t)
	if after > before+2 {
		t.Errorf("fd leak across 1000 scans: %d before, %d after", before, after)
	}
}

func TestIsTransientClassification(t *testing.T) {
	transient := &faultfs.FaultError{Op: faultfs.OpRead, Path: "x", Transient: true}
	permanent := &faultfs.FaultError{Op: faultfs.OpRead, Path: "x"}
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{transient, true},
		{fmt.Errorf("wrapped: %w", transient), true},
		{permanent, false},
		{&CorruptError{File: "f", Block: 0, Reason: "crc"}, false},
		{ErrClosed, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("read: %w", syscall.EMFILE), true},
		{fmt.Errorf("read: %w", syscall.EINTR), true},
		{fmt.Errorf("read: %w", syscall.EIO), false},
		{&PartialError{Table: "t", Block: 1, Err: transient}, true},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
