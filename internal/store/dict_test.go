package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// TestOldFormatFailsClearly: a store whose manifest records format 1
// does not open; the error is ErrFormat and tells the user to import the
// data again with pvcimport.
func TestOldFormatFailsClearly(t *testing.T) {
	dir := writeFixture(t, 10, 4)
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man["format"] != float64(2) {
		t.Fatalf("a new store records format %v, want 2", man["format"])
	}
	man["format"] = 1
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if !errors.Is(err, ErrFormat) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of a format-1 store: %v, want ErrFormat", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "format 1") || !strings.Contains(msg, "pvcimport") {
		t.Errorf("error %q does not name the format and pvcimport", msg)
	}
}

// codedBatches scans column col of table name batch by batch and
// returns, per block, its dictionary (nil for a plain block) and its
// strings, checking that every code names its row's string.
func codedBatches(t *testing.T, st *Store, name string, col int) (dicts, strs [][]string) {
	t.Helper()
	tab, _ := st.Table(name)
	sc, err := tab.NewScan(context.Background(), pvc.ScanOptions{Cols: []int{col}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for {
		b, ok, err := sc.(pvc.BatchIter).NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return dicts, strs
		}
		dict, codes := b.Coded(0)
		for _, i := range b.Sel {
			if codes != nil && dict[codes[i]] != b.Strs[0][i] {
				t.Fatalf("block %d row %d: code %d names %q, the row holds %q", len(dicts), i, codes[i], dict[codes[i]], b.Strs[0][i])
			}
		}
		dicts = append(dicts, slices.Clone(dict))
		strs = append(strs, slices.Clone(b.Strs[0]))
	}
}

// TestWriterCodesLowCardinalityStrings: the writer codes a block's
// string column when it holds at most half as many distinct strings as
// the block has rows and at most 255, in first-seen order, and writes it
// plain otherwise; either way it reads back as written.
func TestWriterCodesLowCardinalityStrings(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, algebra.Boolean, nil, Options{BlockCapacity: 600})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := w.CreateTable("s", pvc.Schema{{Name: "k", Type: pvc.TString}})
	if err != nil {
		t.Fatal(err)
	}
	// Blocks of 600 rows with 255 and 256 distinct strings, then a
	// trailing block of 9 rows with 4, at most half of 9 (five of eight,
	// more than half, stay plain in TestCodedGroupsMatchMemory).
	distinct := []int{255, 256}
	var want [][]string
	for _, d := range distinct {
		var block []string
		for i := 0; i < 600; i++ {
			block = append(block, fmt.Sprintf("s%03d", (d-1-i%d+i/d)%d))
		}
		want = append(want, block)
	}
	want = append(want, []string{"b", "a", "b", "c", "d", "a", "a", "c", "b"})
	for _, block := range want {
		for _, s := range block {
			if err := tw.Append(nil, pvc.StringCell(s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dicts, strs := codedBatches(t, st, "s", 0)
	if !slices.EqualFunc(strs, want, slices.Equal) {
		t.Fatal("strings do not read back as written")
	}
	for bi, coded := range []bool{true, false, true} {
		if (dicts[bi] != nil) != coded {
			t.Errorf("block %d: dictionary %d entries, want coded %v", bi, len(dicts[bi]), coded)
		}
	}
	if got := dicts[2]; fmt.Sprint(got) != "[b a c d]" {
		t.Errorf("dictionary %q, want first-seen order [b a c d]", got)
	}
	if len(dicts[0]) != 255 {
		t.Errorf("dictionary of %d entries, want 255", len(dicts[0]))
	}
}

// TestDictDecoderRejectsHostileBlocks: a CRC-valid block whose coded
// string column is damaged scans, after the rows of a valid block, to
// ErrCorrupt naming the damage — a code past the dictionary, a
// dictionary of more than 255 entries or more than the block's rows, a
// short run of codes, a short dictionary, an unknown encoding — and a
// valid coded block scans to its rows.
func TestDictDecoderRejectsHostileBlocks(t *testing.T) {
	tab, blocks := fuzzFixture(t)
	// coded is the body of a block of n rows whose name segment is seg.
	coded := func(n int, seg []byte) []byte {
		var ids, ws, anns []byte
		for i := 0; i < n; i++ {
			ids = appendValue(ids, value.Int(int64(i)))
			ws = appendValue(ws, value.Int(1))
			anns = append(anns, annOne)
		}
		return blockBody(n, ids, seg, ws, anns)
	}
	dict := func(k int, entries ...string) []byte {
		b := binary.AppendUvarint([]byte{strDict}, uint64(k))
		for _, s := range entries {
			b = appendString(b, s)
		}
		return b
	}
	for _, c := range []struct {
		name   string
		body   []byte
		rows   int
		reason string // "" for a valid block
	}{
		{"valid", coded(4, append(dict(2, "a", "b"), 0, 1, 1, 0)), 4, ""},
		{"code past the dictionary", coded(4, append(dict(2, "a", "b"), 0, 1, 2, 0)), 4, "code 2 at row 2"},
		{"more than 255 entries", coded(600, dict(256)), 600, "dictionary of 256 entries"},
		{"more entries than rows", coded(2, append(dict(3, "a", "b", "c"), 0, 1)), 2, "dictionary of 3 entries for 2 rows"},
		{"short run of codes", coded(4, append(dict(2, "a", "b"), 0, 1, 1)), 4, "codes:"},
		{"short dictionary", coded(4, dict(2, "a")), 4, "column name"},
		{"unknown encoding", coded(4, []byte{2, 0, 0, 0, 0}), 4, "bad string encoding 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			it := newTwoBlocks(tab, blocks[0], sealBlock(c.body), c.rows).scan()
			defer it.Close()
			n := 0
			for {
				_, ok, err := it.Next()
				if err != nil {
					if c.reason == "" || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.reason) {
						t.Fatalf("scan error %v, want ErrCorrupt naming %q", err, c.reason)
					}
					break
				}
				if !ok {
					if c.reason != "" {
						t.Fatal("scan ended without an error")
					}
					break
				}
				n++
			}
			want := tab.meta.Blocks[0].Rows
			if c.reason == "" {
				want += c.rows
			}
			if n != want {
				t.Errorf("%d rows, want %d", n, want)
			}
		})
	}
}

// TestCodedGroupsMatchMemory: over a store whose blocks code their
// string columns with dictionaries in different orders — one block
// lacking a string, one with too many strings to code — $ and π group
// the rows exactly as they do in memory, with the scan reading ahead
// (two Ps) and without (one P).
func TestCodedGroupsMatchMemory(t *testing.T) {
	flags := [][]string{
		{"A", "N", "R", "A", "N", "R", "A", "N"},
		{"R", "N", "A", "R", "N", "A", "R", "N"},
		{"N", "A", "N", "A", "N", "A", "N", "A"}, // no R
		{"A", "R", "N", "A", "R", "N", "A", "R"},
		{"A", "N", "R", "X", "Y", "A", "N", "R"}, // five: plain
	}
	states := [][]string{
		{"F", "O", "F", "O", "F", "O", "F", "O"},
		{"O", "F", "O", "F", "O", "F", "O", "F"},
		{"F", "F", "O", "O", "F", "F", "O", "O"},
		{"O", "O", "O", "O", "F", "F", "F", "F"},
		{"F", "O", "F", "O", "F", "O", "F", "O"},
	}
	schema := pvc.Schema{{Name: "flag", Type: pvc.TString}, {Name: "status", Type: pvc.TString}, {Name: "v", Type: pvc.TValue}}
	dir := t.TempDir()
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	w, err := Create(dir, algebra.Boolean, reg, Options{BlockCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := w.CreateTable("li", schema)
	if err != nil {
		t.Fatal(err)
	}
	mem := pvc.NewDatabase(algebra.Boolean)
	mem.Registry = reg
	rel := pvc.NewRelation("li", schema)
	for bi := range flags {
		for i := range flags[bi] {
			ann := []expr.Expr{expr.CInt(1), expr.CInt(1), expr.V("x"), expr.CInt(0)}[(bi+i)%4]
			cells := []pvc.Cell{pvc.StringCell(flags[bi][i]), pvc.StringCell(states[bi][i]), pvc.IntCell(int64(8*bi + i))}
			if err := tw.Append(ann, cells...); err != nil {
				t.Fatal(err)
			}
			rel.MustInsert(ann, cells...)
		}
	}
	mem.Add(rel)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	dicts, _ := codedBatches(t, st, "li", 0)
	if got := fmt.Sprint(dicts); got != "[[A N R] [R N A] [N A] [A R N] []]" {
		t.Fatalf("flag dictionaries %s", got)
	}

	count := engine.AggSpec{Out: "n", Agg: algebra.Count}
	sum := engine.AggSpec{Out: "s", Agg: algebra.Sum, Over: "v"}
	plans := []engine.Plan{
		&engine.GroupAgg{Input: &engine.Scan{Table: "li"}, GroupBy: []string{"flag", "status"}, Aggs: []engine.AggSpec{count, sum}},
		&engine.GroupAgg{Input: &engine.Scan{Table: "li"}, GroupBy: []string{"status", "flag"}, Aggs: []engine.AggSpec{sum}},
		&engine.GroupAgg{Input: &engine.Scan{Table: "li"}, GroupBy: []string{"flag"}, Aggs: []engine.AggSpec{{Out: "m", Agg: algebra.Max, Over: "v"}}},
		&engine.GroupAgg{
			Input:   &engine.Select{Input: &engine.Scan{Table: "li"}, Pred: engine.Where(engine.ColTheta("status", value.EQ, pvc.StringCell("F")))},
			GroupBy: []string{"flag"}, Aggs: []engine.AggSpec{count},
		},
		&engine.Project{Input: &engine.Scan{Table: "li"}, Cols: []string{"flag"}},
		&engine.Project{Input: &engine.Scan{Table: "li"}, Cols: []string{"flag", "status"}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for i, plan := range plans {
			want, _, err := engine.StreamEvalPlan(context.Background(), mem, plan)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := engine.StreamEvalPlan(context.Background(), st.Database(), plan)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("%d Ps, plan %d: store\n%s\nin memory\n%s", procs, i, got, want)
			}
		}
	}
}
