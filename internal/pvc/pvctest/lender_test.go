package pvctest_test

import (
	"context"
	"fmt"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/pvc/pvctest"
	"pvcagg/internal/value"
)

func shops() *pvc.Relation {
	rel := pvc.NewRelation("S", pvc.Schema{{Name: "sid", Type: pvc.TValue}, {Name: "shop", Type: pvc.TString}})
	rel.MustInsert(expr.V("x1"), pvc.IntCell(1), pvc.StringCell("M&S"))
	rel.MustInsert(expr.CInt(0), pvc.IntCell(2), pvc.StringCell("Gap"))
	rel.MustInsert(nil, pvc.IntCell(3), pvc.StringCell("Gap"))
	rel.MustInsert(expr.V("x4"), pvc.IntCell(4), pvc.StringCell("M&S"))
	return rel
}

func poisoned(t pvc.Tuple) bool {
	for _, c := range t.Cells {
		if c.Kind() != pvc.KindString || c.Str() != pvctest.Poison {
			return false
		}
	}
	return true
}

// TestLenderEndsLoans: a tuple kept without a copy reads poison after
// the next Next, after the Next that ends the stream and after Close;
// its Clone, its annotation and cells copied out of it do not.
func TestLenderEndsLoans(t *testing.T) {
	ctx := context.Background()
	rel := shops()
	it, err := pvctest.NewLender(rel).NewScan(ctx, pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first, ok, err := it.Next()
	if err != nil || !ok {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	kept, cell := first.Clone(), first.Cells[1]
	second, _, _ := it.Next()
	if !poisoned(first) {
		t.Errorf("row still readable after the next Next: %v", first.Cells)
	}
	if poisoned(second) || !second.Cells[0].Equal(pvc.IntCell(2)) {
		t.Errorf("row on loan is not the second row: %v", second.Cells)
	}
	if !kept.Cells[0].Equal(pvc.IntCell(1)) || !cell.Equal(pvc.StringCell("M&S")) || !expr.Equal(kept.Ann, expr.V("x1")) {
		t.Errorf("copies were poisoned: %v %v %v", kept.Cells, cell, kept.Ann)
	}
	it.Next()
	last, _, _ := it.Next()
	if _, ok, _ := it.Next(); ok || !poisoned(last) {
		t.Errorf("end of stream left the last row readable: ok=%v %v", ok, last.Cells)
	}

	it, _ = pvctest.NewLender(rel).NewScan(ctx, pvc.ScanOptions{})
	first, _, _ = it.Next()
	if err := it.Close(); err != nil || !poisoned(first) {
		t.Errorf("Close left the row readable: err=%v %v", err, first.Cells)
	}
	if _, _, err := it.Next(); err == nil {
		t.Error("Next after Close succeeded")
	}
}

// TestLenderUsesItsFreedoms: it drops what hints and DropZero allow and
// projects, and LendingDatabase lends the named relations only.
func TestLenderUsesItsFreedoms(t *testing.T) {
	ctx := context.Background()
	rel := shops()
	gap := pvc.StringCell("Gap")
	it, err := pvctest.NewLender(rel).NewScan(ctx, pvc.ScanOptions{
		Cols: []int{1, 0}, DropZero: true,
		Hints: []pvc.ScanHint{{Col: 1, Th: value.EQ, RightCol: -1, Cell: &gap}},
	})
	if err != nil {
		t.Fatal(err)
	}
	row, ok, _ := it.Next()
	if !ok || !row.Cells[0].Equal(gap) || !row.Cells[1].Equal(pvc.IntCell(3)) {
		t.Fatalf("filtered scan returned %v (ok=%v), want ⟨Gap, 3⟩", row.Cells, ok)
	}
	if _, ok, _ := it.Next(); ok {
		t.Error("filtered scan returned a second row")
	}
	if _, err := pvctest.NewLender(rel).NewScan(ctx, pvc.ScanOptions{Cols: []int{2}}); err == nil {
		t.Error("out-of-range projection accepted")
	}

	db := pvc.NewDatabase(algebra.Boolean)
	db.Add(rel)
	lent := pvctest.LendingDatabase(db)
	if _, ok := lent.Provider("S"); !ok {
		t.Fatal("LendingDatabase did not register a provider for S")
	}
	if mixed := pvctest.LendingDatabase(db, "nope"); len(mixed.Names()) != 1 {
		t.Errorf("names = %v", mixed.Names())
	} else if _, ok := mixed.Provider("S"); ok {
		t.Error("unnamed relation was lent")
	}
}

// TestLenderLendsBatches: a scan over constant columns serves batches of
// three stored rows whose selection holds the rows Next would
// return, and a batch kept past its loan reads poison in its vectors,
// annotations and selection; an inexact lender ignores hints and
// DropZero and states nothing, an exact one states its selection exact.
func TestLenderLendsBatches(t *testing.T) {
	ctx := context.Background()
	rel := shops()
	gap := pvc.StringCell("Gap")
	opts := pvc.ScanOptions{
		Cols: []int{1, 0}, DropZero: true,
		Hints: []pvc.ScanHint{{Col: 1, Th: value.EQ, RightCol: -1, Cell: &gap}},
	}
	db := pvc.NewDatabase(algebra.Boolean)
	db.Add(rel)
	for _, c := range []struct {
		db    *pvc.Database
		exact bool
		sel   [][]int32
	}{
		{pvctest.LendingDatabase(db), true, [][]int32{{2}}},
		{pvctest.InexactLendingDatabase(db), false, [][]int32{{0, 1, 2}, {0}}},
	} {
		p, _ := c.db.Provider("S")
		if got := p.(pvc.ExactScanner).ExactHints(opts.Hints); got != c.exact {
			t.Errorf("ExactHints = %v, want %v", got, c.exact)
		}
		sc, err := p.NewScan(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		it := sc.(pvc.BatchIter)
		var kept []*pvc.Batch
		for {
			b, ok, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if len(kept) < len(c.sel) && fmt.Sprint(b.Sel) != fmt.Sprint(c.sel[len(kept)]) {
				t.Errorf("batch %d selects %v, want %v", len(kept), b.Sel, c.sel[len(kept)])
			}
			if b.Strs[0] == nil || b.Vals[1] == nil || !b.Cell(0, int(b.Sel[0])).Equal(pvc.StringCell(rel.Tuples[3*len(kept)+int(b.Sel[0])].Cells[1].Str())) {
				t.Errorf("batch %d has the wrong vectors: %+v", len(kept), b)
			}
			kept = append(kept, b)
		}
		if len(kept) != len(c.sel) {
			t.Fatalf("%d batches, want %d", len(kept), len(c.sel))
		}
		for _, b := range kept {
			for i := range b.Anns {
				if b.Strs[0][i] != pvctest.Poison || !b.Vals[1][i].IsPosInf() || expr.String(b.Anns[i]) != expr.String(expr.V(pvctest.Poison)) {
					t.Errorf("batch row %d still readable after its loan: %q %v %s", i, b.Strs[0][i], b.Vals[1][i], expr.String(b.Anns[i]))
				}
			}
			for _, i := range b.Sel {
				if i != 0 {
					t.Errorf("selection %v still readable after its loan", b.Sel)
				}
			}
		}
		sc.Close()
	}

	m := pvc.NewRelation("M", pvc.Schema{{Name: "X", Type: pvc.TModule}})
	sc, err := pvctest.NewLender(m).NewScan(ctx, pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sc.(pvc.BatchIter); ok {
		t.Error("a scan of an aggregation column serves batches")
	}
}

// TestDictLenderCodesBatches: a dictionary lender codes each string
// column of a batch, Strs[c][i] = Dicts[c][Codes[c][i]], in first-seen
// order in even batches and reversed in odd ones, leaves value columns
// plain, and poisons dictionaries and codes with the batch.
func TestDictLenderCodesBatches(t *testing.T) {
	rel := pvc.NewRelation("S", pvc.Schema{{Name: "sid", Type: pvc.TValue}, {Name: "shop", Type: pvc.TString}})
	for i, shop := range []string{"M&S", "Gap", "Gap", "M&S", "Gap", "M&S"} {
		rel.MustInsert(nil, pvc.IntCell(int64(i)), pvc.StringCell(shop))
	}
	db := pvc.NewDatabase(algebra.Boolean)
	db.Add(rel)
	p, _ := pvctest.DictLendingDatabase(db).Provider("S")
	sc, err := p.NewScan(context.Background(), pvc.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	it := sc.(pvc.BatchIter)
	var kept []*pvc.Batch
	for _, want := range [][]string{{"M&S", "Gap"}, {"Gap", "M&S"}} {
		b, ok, err := it.NextBatch()
		if err != nil || !ok {
			t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
		}
		if d, codes := b.Coded(0); d != nil || codes != nil {
			t.Errorf("value column coded: %v %v", d, codes)
		}
		dict, codes := b.Coded(1)
		if fmt.Sprint(dict) != fmt.Sprint(want) {
			t.Errorf("batch %d dictionary %q, want %q", len(kept), dict, want)
		}
		for i, s := range b.Strs[1] {
			if dict[codes[i]] != s {
				t.Errorf("batch %d row %d: code %d names %q, the row holds %q", len(kept), i, codes[i], dict[codes[i]], s)
			}
		}
		kept = append(kept, b)
	}
	if _, ok, _ := it.NextBatch(); ok {
		t.Fatal("a third batch")
	}
	for _, b := range kept {
		dict, codes := b.Coded(1)
		if dict[codes[0]] != pvctest.Poison || dict[codes[2]] != pvctest.Poison {
			t.Errorf("coded batch still readable after its loan: %q %v", dict, codes)
		}
	}
}
