package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pvcagg/internal/expr"
	"pvcagg/internal/faultfs"
	"pvcagg/internal/value"
)

// varsFS serves one vars.dat image from memory; loadVars reads nothing
// else.
type varsFS struct {
	faultfs.FS
	data []byte
}

func (f varsFS) ReadFile(string) ([]byte, error) { return f.data, nil }

// sealVars returns a vars.dat image: the magic, body and CRC trailer.
func sealVars(body []byte) []byte {
	return sealBlock(append([]byte(varsMagic), body...))
}

// varRecord encodes one variable record of vars.dat declaring np pairs,
// of which only the given ones follow.
func varRecord(name string, np uint64, pairs ...[2]float64) []byte {
	b := binary.AppendUvarint(appendString(nil, name), np)
	for _, p := range pairs {
		b = appendFloat64(appendValue(b, value.Int(int64(p[0]))), p[1])
	}
	return b
}

// TestHostilePairCountIsCorrupt: a CRC-valid vars.dat declaring one
// variable with 2⁶² pairs made OpenFS panic in makeslice, and one with
// 2²⁸ allocated 6 GB before the read failed; both are ErrCorrupt now,
// refused by the bytes left before anything is sized.
func TestHostilePairCountIsCorrupt(t *testing.T) {
	for _, np := range []uint64{1 << 62, 1 << 28, 2} {
		dir := writeFixture(t, 10, 16)
		body := append(binary.AppendUvarint(nil, 1), varRecord("x", np, [2]float64{1, 1})...)
		if err := os.WriteFile(filepath.Join(dir, varsName), sealVars(body), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := OpenFS(dir, faultfs.OS())
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d pairs: OpenFS = %v, want ErrCorrupt", np, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%d pairs: OpenFS allocated %d bytes", np, got)
		}
	}
}

// FuzzLoadVars holds the vars.dat decoder to its contract on hostile
// bytes: the body behind the magic is fuzzed and its CRC recomputed, so
// the checksum does not shield the decoder. loadVars must return a
// registry holding every record, or an ErrCorrupt — never a panic, and
// never memory out of proportion to the file. The registry's table is
// sized by the process-wide interned variable ID, so the bound
// allows for the largest ID declared; a first, unmeasured load interns
// the names.
func FuzzLoadVars(f *testing.F) {
	f.Add(append(binary.AppendUvarint(nil, 2),
		append(varRecord("x", 2, [2]float64{0, 0.25}, [2]float64{1, 0.75}), varRecord("y", 1, [2]float64{3, 1})...)...))
	f.Add(append(binary.AppendUvarint(nil, 1), varRecord("x", 1<<62, [2]float64{1, 1})...))
	f.Add(append(binary.AppendUvarint(nil, 1), varRecord("x", 1, [2]float64{1, -1})...))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, body []byte) {
		data := sealVars(body)
		_ = (&Store{fs: varsFS{data: data}}).loadVars() // interns the names; judged below
		st := &Store{fs: varsFS{data: data}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := st.loadVars()
		runtime.ReadMemStats(&after)
		maxID := 0
		for _, name := range st.reg.Names() {
			maxID = max(maxID, int(expr.Intern(name)))
		}
		if limit := uint64(1<<20 + 1024*len(data) + 128*maxID); after.TotalAlloc-before.TotalAlloc > limit {
			t.Errorf("load of a %d-byte vars.dat allocated %d bytes", len(data), after.TotalAlloc-before.TotalAlloc)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("load error is not ErrCorrupt: %v", err)
			}
			return
		}
		if st.reg.Len() != len(st.varExprs) {
			t.Fatalf("%d variables declared, %d boxed", st.reg.Len(), len(st.varExprs))
		}
		for _, name := range st.reg.Names() {
			if d, err := st.reg.Dist(name); err != nil || d.Size() == 0 {
				t.Fatalf("variable %q: distribution %v, %v", name, d, err)
			}
		}
	})
}
