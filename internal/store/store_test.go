package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
	"pvcagg/internal/testutil"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// writeFixture builds a small two-table store: "items" with ascending
// ids (tight zone maps across blocks) and an empty table "none".
func writeFixture(t *testing.T, rows, capacity int) string {
	t.Helper()
	dir := t.TempDir()
	reg := vars.NewRegistry()
	w, err := Create(dir, algebra.Boolean, reg, Options{BlockCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := w.CreateTable("items", pvc.Schema{
		{Name: "id", Type: pvc.TValue},
		{Name: "name", Type: pvc.TString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tw.Append(nil, pvc.IntCell(int64(i)), pvc.StringCell(fmt.Sprintf("n%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.CreateTable("none", pvc.Schema{{Name: "x", Type: pvc.TValue}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// collect drains it, cloning every tuple: a scan lends its row buffer
// only until the next Next.
func collect(t *testing.T, it pvc.TupleIter) []pvc.Tuple {
	t.Helper()
	var out []pvc.Tuple
	for {
		tup, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, tup.Clone())
	}
}

func TestRoundTrip(t *testing.T) {
	dir := writeFixture(t, 100, 16)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != 1 {
		t.Errorf("epoch = %d, want 1", st.Epoch())
	}
	tab, ok := st.Table("items")
	if !ok {
		t.Fatal("items missing")
	}
	if tab.Rows() != 100 || tab.Blocks() != 7 {
		t.Errorf("rows=%d blocks=%d, want 100 rows in 7 blocks", tab.Rows(), tab.Blocks())
	}
	it, err := tab.NewScan(context.Background(), pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	tuples := collect(t, it)
	if len(tuples) != 100 {
		t.Fatalf("scanned %d rows, want 100", len(tuples))
	}
	for i, tup := range tuples {
		if got := tup.Cells[0].String(); got != fmt.Sprint(i) {
			t.Fatalf("row %d: id = %s", i, got)
		}
		if got := tup.Cells[1].String(); got != fmt.Sprintf("n%03d", i) {
			t.Fatalf("row %d: name = %s", i, got)
		}
		if c, ok := tup.Ann.(expr.Const); !ok || !c.V.IsOne() {
			t.Fatalf("row %d: ann = %s, want 1", i, expr.String(tup.Ann))
		}
	}
}

func TestEmptyTable(t *testing.T) {
	dir := writeFixture(t, 0, 16)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"items", "none"} {
		tab, _ := st.Table(name)
		if tab.Rows() != 0 || tab.Blocks() != 0 {
			t.Errorf("%s: rows=%d blocks=%d, want empty", name, tab.Rows(), tab.Blocks())
		}
		it, err := tab.NewScan(context.Background(), pvc.ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := collect(t, it); len(got) != 0 {
			t.Errorf("%s: scanned %d rows from empty table", name, len(got))
		}
		it.Close()
	}
}

func TestStats(t *testing.T) {
	dir := writeFixture(t, 100, 16)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := st.Table("items")
	ts, ok := tab.TableStats()
	if !ok {
		t.Fatal("no persisted stats")
	}
	if ts.Rows != 100 {
		t.Errorf("stats rows = %v", ts.Rows)
	}
	// Both columns are unique; KMV is exact below its sketch size.
	for _, col := range []string{"id", "name"} {
		if d := ts.Distinct[col]; d != 100 {
			t.Errorf("distinct[%s] = %v, want 100", col, d)
		}
	}
}

func TestProjectionAndSkipping(t *testing.T) {
	dir := writeFixture(t, 100, 16)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := st.Table("items")
	// ids ascend, 16 per block: id >= 80 touches blocks 5 and 6 only.
	hint := pvc.ScanHint{Col: 0, Th: value.GE, RightCol: -1, Cell: cellPtr(pvc.IntCell(80))}
	it, err := tab.NewScan(context.Background(), pvc.ScanOptions{
		Cols:  []int{1},
		Hints: []pvc.ScanHint{hint},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	tuples := collect(t, it)
	// Blocks are pruned, not rows: the id = 80..95 block plus the tail.
	if len(tuples) != 20 {
		t.Errorf("scanned %d rows, want 20 (blocks 5-6)", len(tuples))
	}
	for _, tup := range tuples {
		if len(tup.Cells) != 1 {
			t.Fatalf("projected tuple has %d cells", len(tup.Cells))
		}
	}
	m := st.Metrics()
	if m.BlocksRead != 2 || m.BlocksSkipped != 5 {
		t.Errorf("read=%d skipped=%d, want 2 read 5 skipped", m.BlocksRead, m.BlocksSkipped)
	}
	if m.BytesSkipped == 0 || m.BytesRead == 0 {
		t.Errorf("byte counters empty: %+v", m)
	}
	st.ResetMetrics()
	if m := st.Metrics(); m.BlocksRead != 0 {
		t.Errorf("reset failed: %+v", m)
	}
}

func cellPtr(c pvc.Cell) *pvc.Cell { return &c }

func TestScanMisuse(t *testing.T) {
	dir := writeFixture(t, 100, 16)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := st.Table("items")
	if _, err := tab.NewScan(context.Background(), pvc.ScanOptions{Cols: []int{7}}); err == nil {
		t.Error("out-of-range projection accepted")
	}
	it, err := tab.NewScan(context.Background(), pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Early break: Close mid-scan must be clean and idempotent.
	if _, _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := it.Next(); !errors.Is(err, ErrClosed) {
		t.Errorf("Next after Close = %v, want ErrClosed", err)
	}
}

func TestContextCancelMidScan(t *testing.T) {
	dir := writeFixture(t, 100, 16)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := st.Table("items")
	ctx, cancel := context.WithCancel(context.Background())
	it, err := tab.NewScan(ctx, pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	// Drain the first block, then cancel: the next block boundary must
	// surface ctx.Err().
	for i := 0; i < 16; i++ {
		if _, _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	var sawErr error
	for i := 0; i < 32; i++ {
		_, ok, err := it.Next()
		if err != nil {
			sawErr = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Errorf("scan after cancel = %v, want context.Canceled", sawErr)
	}
}

func TestOpenMissingManifest(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a directory with no manifest")
	} else if errors.Is(err, ErrCorrupt) {
		// A missing manifest is "no store here" (e.g. a crashed import),
		// not corruption of a committed one.
		t.Errorf("missing manifest classified as corruption: %v", err)
	}
}

func TestCorruptBlock(t *testing.T) {
	dir := writeFixture(t, 100, 16)
	// Flip one byte in the middle of the data file.
	path := filepath.Join(dir, "t0000.dat")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := st.Table("items")
	it, err := tab.NewScan(context.Background(), pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var sawErr error
	for {
		_, ok, err := it.Next()
		if err != nil {
			sawErr = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(sawErr, ErrCorrupt) {
		t.Fatalf("scan of corrupted file = %v, want ErrCorrupt", sawErr)
	}
	var ce *CorruptError
	if !errors.As(sawErr, &ce) {
		t.Fatalf("error %v is not a *CorruptError", sawErr)
	}
}

func TestTruncatedBlock(t *testing.T) {
	dir := writeFixture(t, 100, 16)
	path := filepath.Join(dir, "t0000.dat")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := st.Table("items")
	it, err := tab.NewScan(context.Background(), pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var sawErr error
	for {
		_, ok, err := it.Next()
		if err != nil {
			sawErr = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(sawErr, ErrCorrupt) {
		t.Fatalf("scan of truncated file = %v, want ErrCorrupt", sawErr)
	}
}

func TestCorruptManifest(t *testing.T) {
	dir := writeFixture(t, 10, 16)
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with mangled manifest = %v, want ErrCorrupt", err)
	}
}

// TestCrashConsistency simulates an import that died before commit: data
// files exist but the manifest (written last, atomically) does not.
// Open must refuse the directory, and a fresh import into it must also
// refuse (Create never overwrites) — the recovery path is a new
// directory, keeping committed stores immutable.
func TestCrashConsistency(t *testing.T) {
	dir := writeFixture(t, 50, 16)
	if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted an uncommitted (crashed) import")
	}
	// Re-import into the same directory succeeds: without a committed
	// manifest the directory is fair game for a retry.
	w, err := Create(dir, algebra.Boolean, nil, Options{BlockCapacity: 8})
	if err != nil {
		t.Fatalf("retry import after crash: %v", err)
	}
	tw, err := w.CreateTable("items", pvc.Schema{{Name: "id", Type: pvc.TValue}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tw.Append(nil, pvc.IntCell(int64(i))); err != nil {
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
	tab, ok := st.Table("items")
	if !ok || tab.Rows() != 20 {
		t.Fatalf("reopened store wrong: ok=%v rows=%d", ok, tab.Rows())
	}
	it, err := tab.NewScan(context.Background(), pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if got := collect(t, it); len(got) != 20 {
		t.Fatalf("scanned %d rows, want 20", len(got))
	}
}

func TestWriterMisuse(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, algebra.Boolean, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.CreateTable("", pvc.Schema{{Name: "a", Type: pvc.TValue}}); err == nil {
		t.Error("empty table name accepted")
	}
	if _, err := w.CreateTable("t", pvc.Schema{{Name: "m", Type: pvc.TModule}}); err == nil {
		t.Error("module column accepted")
	}
	tw, err := w.CreateTable("t", pvc.Schema{{Name: "a", Type: pvc.TValue}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.CreateTable("t", pvc.Schema{{Name: "a", Type: pvc.TValue}}); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := tw.Append(nil, pvc.IntCell(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Create refuses a committed store.
	if _, err := Create(dir, algebra.Boolean, nil, Options{}); err == nil {
		t.Error("Create over a committed store accepted")
	}

	// Bad rows poison the table writer: the first error sticks, and the
	// commit fails rather than writing a store missing rows.
	dir2 := t.TempDir()
	w2, err := Create(dir2, algebra.Boolean, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tw2, err := w2.CreateTable("t", pvc.Schema{{Name: "a", Type: pvc.TValue}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw2.Append(nil, pvc.IntCell(1), pvc.IntCell(2)); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := tw2.Append(nil, pvc.IntCell(1)); err == nil {
		t.Error("append after a failed append accepted")
	}
	if err := w2.Close(); err == nil {
		t.Error("commit of a poisoned writer accepted")
	}
	if _, err := Open(dir2); err == nil {
		t.Error("poisoned import produced an openable store")
	}

	dir3 := t.TempDir()
	w3, err := Create(dir3, algebra.Boolean, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tw3, err := w3.CreateTable("t", pvc.Schema{{Name: "a", Type: pvc.TValue}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw3.Append(nil, pvc.StringCell("x")); err == nil {
		t.Error("type mismatch accepted")
	}
}

// TestUndeclaredVariable: an annotation referencing a variable absent
// from the registry must fail the commit, not write an unreadable store.
func TestUndeclaredVariable(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, algebra.Boolean, vars.NewRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := w.CreateTable("t", pvc.Schema{{Name: "a", Type: pvc.TValue}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Append(expr.V("ghost"), pvc.IntCell(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("commit with an undeclared variable accepted")
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("store with undeclared variable opened")
	}
}

func TestAnnotationsAndVarsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := vars.NewRegistry()
	w, err := Create(dir, algebra.Boolean, reg, Options{BlockCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := w.CreateTable("t", pvc.Schema{{Name: "a", Type: pvc.TValue}})
	if err != nil {
		t.Fatal(err)
	}
	anns := []expr.Expr{
		nil, // → 1
		expr.V(reg.Fresh("t", prob.Bernoulli(0.25))), // t0
		expr.V(reg.Fresh("t", prob.Bernoulli(0.75))), // t1
		expr.Product(expr.V(reg.Fresh("t", prob.Bernoulli(0.5))), expr.V("t0")),
		expr.CInt(0), // annotated zero survives storage
	}
	for i, ann := range anns {
		if err := tw.Append(ann, pvc.IntCell(int64(i))); err != nil {
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
	if got := st.Registry().Len(); got != 3 {
		t.Errorf("registry has %d vars, want 3", got)
	}
	// t2 only appears inside a composite expression; its distribution
	// must still be persisted.
	if d, err := st.Registry().Dist("t2"); err != nil {
		t.Errorf("t2 missing: %v", err)
	} else if pairs := d.Pairs(); len(pairs) == 0 {
		t.Errorf("t2 distribution empty")
	}
	tab, _ := st.Table("t")
	it, err := tab.NewScan(context.Background(), pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	tuples := collect(t, it)
	want := []string{"1", "t0", "t1", "(t2*t0)", "0"}
	if len(tuples) != len(want) {
		t.Fatalf("got %d rows, want %d", len(tuples), len(want))
	}
	for i, tup := range tuples {
		if got := expr.String(tup.Ann); got != want[i] {
			t.Errorf("row %d: ann = %s, want %s", i, got, want[i])
		}
	}
	// DropZero removes the literally-zero row.
	it2, err := tab.NewScan(context.Background(), pvc.ScanOptions{DropZero: true})
	if err != nil {
		t.Fatal(err)
	}
	defer it2.Close()
	if got := collect(t, it2); len(got) != len(want)-1 {
		t.Errorf("DropZero scanned %d rows, want %d", len(got), len(want)-1)
	}
}

// TestConcurrentScans exercises one Store from many goroutines (run
// under -race in CI's storage job).
func TestConcurrentScans(t *testing.T) {
	checkLeaks := testutil.CheckGoroutines(t)
	defer checkLeaks()
	dir := writeFixture(t, 200, 16)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := st.Table("items")
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var opts pvc.ScanOptions
			if g%2 == 0 {
				c := pvc.IntCell(int64(g * 20))
				opts.Hints = []pvc.ScanHint{{Col: 0, Th: value.GE, RightCol: -1, Cell: &c}}
			}
			it, err := tab.NewScan(context.Background(), opts)
			if err != nil {
				done <- err
				return
			}
			defer it.Close()
			for {
				_, ok, err := it.Next()
				if err != nil {
					done <- err
					return
				}
				if !ok {
					done <- nil
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st.Metrics().BlocksRead == 0 {
		t.Error("no blocks read")
	}
}
