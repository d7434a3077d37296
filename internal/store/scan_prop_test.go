package store

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/faultfs"
	"pvcagg/internal/obs"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// propTable is one random table of the in-scan filter property: two
// value columns (the first clustered, so zone maps skip; both with ±∞),
// two string columns, and annotations of every record kind — whole
// blocks of 0S included, which is what DropZero and bounded skips act on.
type propTable struct {
	dir      string
	capacity int
	rows     []pvc.Tuple
}

var propSchema = pvc.Schema{
	{Name: "v1", Type: pvc.TValue}, {Name: "v2", Type: pvc.TValue},
	{Name: "s1", Type: pvc.TString}, {Name: "s2", Type: pvc.TString},
}

func propValue(rng *rand.Rand, near int64) value.V {
	switch rng.Intn(12) {
	case 0:
		return value.PosInf()
	case 1:
		return value.NegInf()
	}
	return value.Int(near + rng.Int63n(5) - 2)
}

func writePropTable(t *testing.T, rng *rand.Rand) *propTable {
	t.Helper()
	pt := &propTable{dir: t.TempDir(), capacity: 4 + rng.Intn(12)}
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("y", 0.25)
	w, err := Create(pt.dir, algebra.Natural, reg, Options{BlockCapacity: pt.capacity})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := w.CreateTable("p", propSchema)
	if err != nil {
		t.Fatal(err)
	}
	n := 30 + rng.Intn(90)
	zeroBlock := false
	for i := 0; i < n; i++ {
		if i%pt.capacity == 0 {
			zeroBlock = rng.Intn(5) == 0
		}
		var ann expr.Expr
		switch k := rng.Intn(10); {
		case zeroBlock || k == 0:
			ann = expr.CInt(0)
		case k == 1:
			ann = expr.CInt(3)
		case k == 2:
			ann = expr.V("x")
		case k == 3:
			ann = expr.MustParse("x*y")
		default:
			ann = expr.CInt(1)
		}
		cells := []pvc.Cell{
			pvc.ValueCell(propValue(rng, int64(i/3))),
			pvc.ValueCell(propValue(rng, int64(n/6))),
			pvc.StringCell([]string{"", "a", "b", "c", "v:1"}[rng.Intn(5)]),
			pvc.StringCell(fmt.Sprintf("k%02d", i/7)),
		}
		if err := tw.Append(ann, cells...); err != nil {
			t.Fatal(err)
		}
		pt.rows = append(pt.rows, pvc.Tuple{Cells: cells, Ann: ann})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return pt
}

// propHints draws 1–3 hintable atoms over the columns cols offers:
// against constants of the column's kind or of another kind, ±∞, and
// against other columns of either kind.
func propHints(rng *rand.Rand, n int, cols []int) []pvc.ScanHint {
	thetas := []value.Theta{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE}
	var hints []pvc.ScanHint
	for k := 1 + rng.Intn(3); k > 0; k-- {
		h := pvc.ScanHint{Col: cols[rng.Intn(len(cols))], Th: thetas[rng.Intn(len(thetas))], RightCol: -1}
		switch rng.Intn(4) {
		case 0:
			h.RightCol = cols[rng.Intn(len(cols))]
		case 1:
			c := pvc.StringCell([]string{"", "a", "b", "k03", "zz"}[rng.Intn(5)])
			h.Cell = &c
		default:
			c := pvc.ValueCell(propValue(rng, rng.Int63n(int64(n/3+1))))
			h.Cell = &c
		}
		hints = append(hints, h)
	}
	return hints
}

// refCompare orders two constant cells as the σ operator defines it,
// written out independently of pvc.Cell.Compare: kinds first (value
// before string), then numerically or bytewise.
func refCompare(a, b pvc.Cell) int {
	if a.Kind() != b.Kind() {
		if a.Kind() == pvc.KindValue {
			return -1
		}
		return 1
	}
	if a.Kind() == pvc.KindValue {
		return a.Value().Cmp(b.Value())
	}
	switch {
	case a.Str() < b.Str():
		return -1
	case a.Str() > b.Str():
		return 1
	}
	return 0
}

// refHolds reads a three-way comparison through θ, again written out.
func refHolds(th value.Theta, c int) bool {
	switch th {
	case value.EQ:
		return c == 0
	case value.NE:
		return c != 0
	case value.LT:
		return c < 0
	case value.LE:
		return c <= 0
	case value.GT:
		return c > 0
	}
	return c >= 0
}

// refSigma is the σ the engine keeps above the scan, over full-schema
// rows: every atom must hold, and a row annotated with the constant 0S
// is dropped.
func refSigma(rows []pvc.Tuple, hints []pvc.ScanHint) []pvc.Tuple {
	var out []pvc.Tuple
rows:
	for _, r := range rows {
		if _, zero := annClass(r.Ann); zero {
			continue
		}
		for _, h := range hints {
			right := h.Cell
			if right == nil {
				right = &r.Cells[h.RightCol]
			}
			if !refHolds(h.Th, refCompare(r.Cells[h.Col], *right)) {
				continue rows
			}
		}
		out = append(out, r)
	}
	return out
}

func project(rows []pvc.Tuple, cols []int) []pvc.Tuple {
	out := make([]pvc.Tuple, len(rows))
	for i, r := range rows {
		cells := make([]pvc.Cell, len(cols))
		for o, c := range cols {
			cells[o] = r.Cells[c]
		}
		out[i] = pvc.Tuple{Cells: cells, Ann: r.Ann}
	}
	return out
}

func sameTuples(t *testing.T, what string, got, want []pvc.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() || !expr.Equal(got[i].Ann, want[i].Ann) {
			t.Fatalf("%s: row %d = %s %s, want %s %s", what, i,
				got[i].Label(), got[i].Ann, want[i].Label(), want[i].Ann)
		}
	}
}

// TestInScanFilterSoundness: for random tables and random hintable
// predicates, scan(hints, dropZero) followed by σ equals the full scan
// followed by σ, tuple for tuple and in order — over a clean disk, over
// one that fails reads transiently so blocks are re-read into the scan's
// reused buffers, and over one that loses an all-zero block for good and
// degrades to a bounded skip. The counters keep their meaning: rows read
// are the rows decoded less the zero-annotated rows dropped, not less
// the rows the hints filtered.
func TestInScanFilterSoundness(t *testing.T) {
	var filtered, retried, degraded int64 // the property must not hold vacuously
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pt := writePropTable(t, rng)
		// The projection: nil, or a shuffled subset. Hints range over the
		// projected columns, as the engine's do; σ is then applied to the
		// projected rows through the inverse map.
		var cols []int
		hintCols := []int{0, 1, 2, 3}
		if rng.Intn(3) > 0 {
			cols = rng.Perm(4)[:1+rng.Intn(4)]
			hintCols = cols
		}
		hints := propHints(rng, len(pt.rows), hintCols)
		dropZero := rng.Intn(2) == 0
		want := refSigma(pt.rows, hints)
		outCols := cols
		if outCols == nil {
			outCols = []int{0, 1, 2, 3}
		}
		want = project(want, outCols)
		// Hints re-addressed to output positions, for σ over scanned rows.
		pos := map[int]int{}
		for o, c := range outCols {
			pos[c] = o
		}
		outHints := make([]pvc.ScanHint, len(hints))
		for i, h := range hints {
			h.Col = pos[h.Col]
			if h.Cell == nil {
				h.RightCol = pos[h.RightCol]
			}
			outHints[i] = h
		}
		opts := pvc.ScanOptions{Cols: cols, Hints: hints, DropZero: dropZero}
		label := fmt.Sprintf("seed %d (cap %d, cols %v, dropZero %v, %d hints)", seed, pt.capacity, cols, dropZero, len(hints))

		// Clean disk, traced: results and counters.
		st, err := Open(pt.dir)
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := st.Table("p")
		full, err := tab.NewScan(context.Background(), pvc.ScanOptions{Cols: cols})
		if err != nil {
			t.Fatal(err)
		}
		sameTuples(t, label+": σ(full scan)", refSigma(collect(t, full), outHints), want)
		st.ResetMetrics()
		span := obs.NewTrace().StartSpan("scan")
		it, err := tab.NewScan(obs.ContextWithSpan(context.Background(), span), opts)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, it)
		sameTuples(t, label+": σ(hinted scan)", refSigma(got, outHints), want)
		var wantRows, wantRead, wantSkipped int64
		for bi := 0; bi*pt.capacity < len(pt.rows); bi++ {
			block := pt.rows[bi*pt.capacity : min((bi+1)*pt.capacity, len(pt.rows))]
			zeros := 0
			for _, r := range block {
				if _, zero := annClass(r.Ann); zero {
					zeros++
				}
			}
			skip := dropZero && zeros == len(block)
			for _, h := range hints {
				skip = skip || !blockMayMatch(h, tab.mins[bi], tab.maxs[bi])
			}
			switch {
			case skip:
				wantSkipped++
			case dropZero:
				wantRead++
				wantRows += int64(len(block) - zeros)
			default:
				wantRead++
				wantRows += int64(len(block))
			}
		}
		m := st.Metrics()
		if m.RowsRead != wantRows || m.BlocksRead != wantRead || m.BlocksSkipped != wantSkipped {
			t.Errorf("%s: metrics %+v, want rows %d, blocks read %d, skipped %d", label, m, wantRows, wantRead, wantSkipped)
		}
		if n := span.Attr("store.rows_read"); n != wantRows {
			t.Errorf("%s: span store.rows_read = %d, want %d", label, n, wantRows)
		}
		if int64(len(got)) > wantRows {
			t.Errorf("%s: scan returned %d rows of %d read", label, len(got), wantRows)
		}
		filtered += wantRows - int64(len(got))

		// Transient read faults: blocks are retried into the same buffers.
		var blips faultfs.Plan
		blips.FailProb[faultfs.OpRead] = 0.4
		blips.Transient = true
		blips.Seed = uint64(seed) + 1
		pol := fastRetry()
		pol.MaxAttempts = 40
		fst := openFaulty(t, pt.dir, blips)
		ftab, _ := fst.Table("p")
		retry := NewRetryState(pol)
		it, err = ftab.NewScan(ContextWithRetry(context.Background(), retry), opts)
		if err != nil {
			t.Fatal(err)
		}
		sameTuples(t, label+": hinted scan under read blips", collect(t, it), got)
		if fm := fst.Metrics(); fm.RowsRead != wantRows || fm.BlocksRead != wantRead {
			t.Errorf("%s: metrics under blips %+v, want rows %d, blocks %d", label, fm, wantRows, wantRead)
		}
		retried += retry.Snapshot().Retries

		// Degraded: without DropZero an all-zero block is read — unless its
		// read fails for good, when a bounded skip drops it. σ cannot tell.
		opts.DropZero = false
		reads := int64(0)
		for bi, bm := range tab.meta.Blocks {
			skipped := false
			for _, h := range hints {
				skipped = skipped || !blockMayMatch(h, tab.mins[bi], tab.maxs[bi])
			}
			if skipped {
				continue
			}
			reads++
			if !bm.AllZero {
				continue
			}
			var lost faultfs.Plan
			lost.FailNth[faultfs.OpRead] = reads
			lost.Transient = true
			dst := openFaulty(t, pt.dir, lost)
			dtab, _ := dst.Table("p")
			retry := NewRetryState(RetryPolicy{MaxAttempts: 1, AllowBoundedSkip: true})
			it, err := dtab.NewScan(ContextWithRetry(context.Background(), retry), opts)
			if err != nil {
				t.Fatal(err)
			}
			sameTuples(t, label+": σ(degraded scan)", refSigma(collect(t, it), outHints), want)
			if n := retry.Snapshot().BoundedBlocks; n != 1 {
				t.Errorf("%s: %d bounded blocks, want 1 (block %d)", label, n, bi)
			}
			degraded++
			break
		}
	}
	if filtered == 0 || retried == 0 || degraded == 0 {
		t.Errorf("vacuous run: %d rows filtered in scans, %d reads retried, %d degraded scans", filtered, retried, degraded)
	}
	t.Logf("%d rows filtered in scans, %d reads retried, %d degraded scans", filtered, retried, degraded)
}

// TestScanHintOnUnprojectedColumn: a hint may name a column the scan
// does not output; the store decodes it for the filter alone.
func TestScanHintOnUnprojectedColumn(t *testing.T) {
	dir := writeFixture(t, 100, 16)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := st.Table("items")
	c := pvc.IntCell(90)
	nonConst := pvc.ExprCell(expr.MustParse("x @sum 5"))
	it, err := tab.NewScan(context.Background(), pvc.ScanOptions{
		Cols: []int{1},
		Hints: []pvc.ScanHint{
			{Col: 0, Th: value.GE, RightCol: -1, Cell: &c},
			{Col: 7, Th: value.EQ, RightCol: -1, Cell: &c},        // unknown column: ignored
			{Col: 0, Th: value.EQ, RightCol: 9},                   // unknown right column: ignored
			{Col: 0, Th: value.LT, RightCol: -1, Cell: &nonConst}, // not a constant: ignored
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it)
	if len(got) != 10 || len(got[0].Cells) != 1 || got[0].Cells[0].Str() != "n090" {
		t.Fatalf("got %d rows starting %v, want the 10 names from n090", len(got), got)
	}
}
