package pvctest_test

import (
	"context"
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
