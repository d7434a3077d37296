package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/faultfs"
	"pvcagg/internal/store"
	"pvcagg/internal/vars"
)

// The import error-path suite: every way an ingest can die — unwritable
// destination, disk faults mid-stream, malformed input — must leave no
// committed store behind (the manifest-last contract) and report a
// useful error.

func writeCSV(t *testing.T, rows int, corruptLine int) string {
	t.Helper()
	var b strings.Builder
	for i := 1; i <= rows; i++ {
		if i == corruptLine {
			fmt.Fprintf(&b, "not-a-number,bad%d\n", i)
			continue
		}
		fmt.Fprintf(&b, "%d,n%03d\n", i, i)
	}
	path := filepath.Join(t.TempDir(), "rows.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertNoStore asserts the directory holds no committed store: Open
// refuses and no manifest file exists.
func assertNoStore(t *testing.T, out string) {
	t.Helper()
	if _, err := store.Open(out); err == nil {
		t.Error("failed import left a store that opens")
	}
	if _, err := os.Stat(filepath.Join(out, "manifest.json")); err == nil {
		t.Error("failed import left a manifest behind")
	}
}

func TestImportCSVRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "db")
	csvPath := writeCSV(t, 50, 0)
	if err := run(out, "", 0, 0, false, 0, csvPath, "items", "id:value,name:string", "boolean", 8); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := st.Table("items")
	if !ok || tab.Rows() != 50 {
		t.Fatalf("imported table missing or short: %v", ok)
	}
}

func TestImportUnwritableDir(t *testing.T) {
	// The -out path is an existing regular file, so the store's MkdirAll
	// fails (works even when the test runs as root, unlike chmod 0).
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	csvPath := writeCSV(t, 10, 0)
	err := run(blocker, "", 0, 0, false, 0, csvPath, "items", "id:value,name:string", "boolean", 8)
	if err == nil {
		t.Fatal("import into a file-as-directory succeeded")
	}
	if _, serr := store.Open(blocker); serr == nil {
		t.Error("unwritable destination still opened as a store")
	}
}

// TestImportDiskFull: an injector under store.CreateFS fails the second
// data write (disk full mid-stream); the ingest must report the error
// and commit nothing.
func TestImportDiskFull(t *testing.T) {
	var plan faultfs.Plan
	plan.FailNth[faultfs.OpWrite] = 2
	in := faultfs.NewInjector(faultfs.OS(), plan)
	create := createStore
	t.Cleanup(func() { createStore = create })
	createStore = func(dir string, kind algebra.SemiringKind, reg *vars.Registry, opts store.Options) (*store.Writer, error) {
		return store.CreateFS(dir, in, kind, reg, opts)
	}
	out := filepath.Join(t.TempDir(), "db")
	csvPath := writeCSV(t, 50, 0)
	err := run(out, "", 0, 0, false, 0, csvPath, "items", "id:value,name:string", "boolean", 8)
	if err == nil {
		t.Fatal("import with injected write failure succeeded")
	}
	if !strings.Contains(err.Error(), "injected") {
		t.Errorf("error %v does not surface the write fault", err)
	}
	if in.Stats().Injected != 1 {
		t.Errorf("injector stats %+v, want exactly one injected fault", in.Stats())
	}
	assertNoStore(t, out)
}

// TestImportMalformedCSV: a bad record mid-stream aborts the ingest with
// a located error and no partial store.
func TestImportMalformedCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "db")
	csvPath := writeCSV(t, 50, 30)
	err := run(out, "", 0, 0, false, 0, csvPath, "items", "id:value,name:string", "boolean", 8)
	if err == nil {
		t.Fatal("import of malformed CSV succeeded")
	}
	if !strings.Contains(err.Error(), "line 30") {
		t.Errorf("error %v does not locate the bad record", err)
	}
	assertNoStore(t, out)
}

// TestImportFlagValidation: an invalid flag or a missing input is an
// error, and -out is not created, since both are checked before the
// store is.
func TestImportFlagValidation(t *testing.T) {
	csvPath := writeCSV(t, 1, 0)
	cases := []struct {
		name string
		err  string
		run  func(out string) error
	}{
		{"no out", "-out is required", func(string) error {
			return run("", "", 0, 0, false, 0, csvPath, "t", "id:value", "boolean", 8)
		}},
		{"gen and csv", "exactly one", func(out string) error {
			return run(out, "tpch", 0.01, 1, false, 0, csvPath, "t", "id:value", "boolean", 8)
		}},
		{"unknown generator", "unknown generator", func(out string) error {
			return run(out, "foo", 0.01, 1, false, 0, "", "", "", "boolean", 8)
		}},
		{"bad semiring", "unknown semiring", func(out string) error {
			return run(out, "", 0, 0, false, 0, csvPath, "t", "id:value", "viterbi", 8)
		}},
		{"csv without table", "-csv requires -table", func(out string) error {
			return run(out, "", 0, 0, false, 0, csvPath, "", "id:value", "boolean", 8)
		}},
		{"csv without schema", "-csv requires -schema", func(out string) error {
			return run(out, "", 0, 0, false, 0, csvPath, "t", "", "boolean", 8)
		}},
		{"missing csv", "no such file", func(out string) error {
			return run(out, "", 0, 0, false, 0, csvPath+".missing", "t", "id:value", "boolean", 8)
		}},
	}
	for _, c := range cases {
		out := filepath.Join(t.TempDir(), "db")
		if err := c.run(out); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.err)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: -out exists after the rejected flags (stat: %v)", c.name, err)
		}
	}
}
