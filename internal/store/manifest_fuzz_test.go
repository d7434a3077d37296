package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"pvcagg/internal/pvc"
)

// scanAll scans every table of st to its end and returns the first error.
func scanAll(st *Store) error {
	for _, name := range st.Names() {
		tab, _ := st.Table(name)
		it, err := tab.NewScan(context.Background(), pvc.ScanOptions{})
		if err != nil {
			return err
		}
		for {
			_, ok, err := it.Next()
			if err != nil {
				it.Close()
				return err
			}
			if !ok {
				break
			}
		}
		if err := it.Close(); err != nil {
			return err
		}
	}
	return nil
}

var firstLen = regexp.MustCompile(`"len": -?[0-9]+`)

// withFirstLen returns manifest with its first block length set to n.
func withFirstLen(manifest []byte, n string) []byte {
	return bytes.Replace(manifest, firstLen.Find(manifest), []byte(`"len": `+n), 1)
}

// TestHostileBlockExtentIsCorrupt: a manifest whose first block has
// length −1 made the first scan panic slicing the read buffer, and one of
// length 2⁶² panicked in makeslice; both are ErrCorrupt now, naming the
// table and the block, before anything is sized.
func TestHostileBlockExtentIsCorrupt(t *testing.T) {
	for _, n := range []string{"-1", "4611686018427387904"} {
		dir := writeFixture(t, 100, 16)
		path := filepath.Join(dir, manifestName)
		manifest, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, withFirstLen(manifest, n), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err == nil {
			err = scanAll(st)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Block != 0 || !strings.Contains(ce.Reason, "items") {
			t.Errorf("block length %s: %v, want a CorruptError naming table items and block 0", n, err)
		}
	}
}

// FuzzOpenManifest writes any bytes as manifest.json over a valid store.
// Open may refuse them with any error; a store it opens must scan every
// table to its rows or to an ErrCorrupt — never a panic, and never memory
// out of proportion to the manifest and the data file.
func FuzzOpenManifest(f *testing.F) {
	dir := writeFixture(f, 40, 16)
	path := filepath.Join(dir, manifestName)
	manifest, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.Stat(filepath.Join(dir, "t0000.dat"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifest)
	f.Add(withFirstLen(manifest, "-1"))
	f.Add(withFirstLen(manifest, "4611686018427387904"))
	// An extent whose end overflows int64 to a negative offset.
	f.Add(withFirstLen([]byte(strings.Replace(string(manifest), `"off": 0`, `"off": 9223372036854775800`, 1)), "4611686018427387904"))
	for _, file := range []string{"", "t9999.dat"} { // the store's directory; no file
		f.Add([]byte(strings.Replace(string(manifest), `"file": "t0000.dat"`, `"file": "`+file+`"`, 1)))
	}
	f.Fuzz(func(t *testing.T, manifest []byte) {
		if err := os.WriteFile(path, manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := Open(dir)
		if err == nil {
			if err := scanAll(st); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scan error is not ErrCorrupt: %v", err)
			}
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+1024*len(manifest)+2*int(data.Size())); got > limit {
			t.Errorf("open and scan of a %d-byte manifest allocated %d bytes", len(manifest), got)
		}
	})
}
