package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/pvc/pvctest"
	"pvcagg/internal/value"
)

// TestKeySeparatorCollision holds the keyed operators to Cell.Equal on
// two rows whose string cells spell the same bytes once written as text
// keys joined by 0x1f ("s:a␟s:b␟s:c" both): π, ∪ and $ keep them as two
// groups and ⋈ finds no match, in memory and over a batch scan.
func TestKeySeparatorCollision(t *testing.T) {
	db := pvc.NewDatabase(algebra.Boolean)
	add := func(name string, rows ...[3]string) {
		r := pvc.NewRelation(name, pvc.Schema{{Name: "a", Type: pvc.TString}, {Name: "b", Type: pvc.TString}})
		for _, row := range rows {
			db.Registry.DeclareBool(row[2], 0.5)
			r.MustInsert(expr.V(row[2]), pvc.StringCell(row[0]), pvc.StringCell(row[1]))
		}
		db.Add(r)
	}
	add("P", [3]string{"a\x1fs:b", "c", "x1"}, [3]string{"a", "b\x1fs:c", "x2"})
	add("L", [3]string{"a\x1fs:b", "c", "y1"})
	add("R", [3]string{"a", "b\x1fs:c", "y2"})
	cases := []struct {
		op   string
		plan Plan
		want []string
	}{
		{"π", &Project{Input: &Scan{Table: "P"}, Cols: []string{"a", "b"}},
			[]string{"a\x1fs:b c : x1", "a b\x1fs:c : x2"}},
		{"∪", &Union{L: &Scan{Table: "L"}, R: &Scan{Table: "R"}},
			[]string{"a\x1fs:b c : y1", "a b\x1fs:c : y2"}},
		{"$", &GroupAgg{Input: &Scan{Table: "P"}, GroupBy: []string{"a", "b"}, Aggs: []AggSpec{{Out: "N", Agg: algebra.Count}}},
			[]string{"a\x1fs:b c (x1 @count m:1) : [x1 != 0]", "a b\x1fs:c (x2 @count m:1) : [x2 != 0]"}},
		{"⋈", &Join{L: &Scan{Table: "L"}, R: &Scan{Table: "R"}}, []string{}},
	}
	for _, c := range cases {
		for _, v := range []struct {
			name string
			db   *pvc.Database
		}{{"memory", db}, {"batches", pvctest.LendingDatabase(db)}} {
			t.Run(c.op+"/"+v.name, func(t *testing.T) {
				rel, _, err := StreamEvalPlan(context.Background(), v.db, c.plan)
				if err != nil {
					t.Fatal(err)
				}
				if got := rowStrings(rel.Tuples); fmt.Sprintf("%q", got) != fmt.Sprintf("%q", c.want) {
					t.Errorf("got  %q\nwant %q", got, c.want)
				}
			})
		}
	}
}

// TestGroupAggEmissionOrder pins the order $ emits its groups in: by the
// text key of their cells (pvc.Tuple.Key), which puts +∞ before −3
// before −∞ before 10 before 9, and a string before its extensions;
// groups whose distinct cells spell one text key leave in first-seen
// order. It reads $ itself, not the root, which sorts again.
func TestGroupAggEmissionOrder(t *testing.T) {
	ints := func(ns ...value.V) [][]pvc.Cell {
		var rows [][]pvc.Cell
		for _, n := range ns {
			rows = append(rows, []pvc.Cell{pvc.ValueCell(n)})
		}
		return rows
	}
	strs := func(ss ...string) [][]pvc.Cell {
		var rows [][]pvc.Cell
		for _, s := range ss {
			var row []pvc.Cell
			for _, f := range strings.Split(s, "|") {
				if n, err := value.Parse(f); err == nil {
					row = append(row, pvc.ValueCell(n))
				} else {
					row = append(row, pvc.StringCell(f))
				}
			}
			rows = append(rows, row)
		}
		return rows
	}
	col := func(name string, ty pvc.ColType) pvc.Col { return pvc.Col{Name: name, Type: ty} }
	cases := []struct {
		name   string
		schema pvc.Schema
		rows   [][]pvc.Cell
		want   string
	}{
		{"ints", pvc.Schema{col("g", pvc.TValue)},
			ints(value.Int(9), value.Int(10), value.Int(-3), value.PosInf(), value.Int(9), value.NegInf()),
			`["+inf" "-3" "-inf" "10" "9"]`},
		{"strings", pvc.Schema{col("g", pvc.TString)},
			strs("b", "a\x1f", "a", "", "B", "a\x00", "ä", "a"),
			`["" "B" "a" "a\x00" "a\x1f" "b" "ä"]`},
		{"string,int", pvc.Schema{col("g", pvc.TString), col("h", pvc.TValue)},
			strs("a|10", "a|9", "a\x1f|1", "a|10"),
			`["a\x1f 1" "a 10" "a 9"]`},
		{"string,string", pvc.Schema{col("g", pvc.TString), col("h", pvc.TString)},
			strs("a|b\x1fs:c", "a\x1fs:b|c", "a|b", "a|a"),
			`["a a" "a b" "a b\x1fs:c" "a\x1fs:b c"]`},
	}
	ctx := context.Background()
	for _, c := range cases {
		db := pvc.NewDatabase(algebra.Natural)
		r := pvc.NewRelation("T", c.schema)
		for _, row := range c.rows {
			r.MustInsert(expr.CInt(1), row...)
		}
		db.Add(r)
		plan := &GroupAgg{Input: &Scan{Table: "T"}, GroupBy: c.schema.Names(), Aggs: []AggSpec{{Out: "N", Agg: algebra.Count}}}
		for _, v := range []struct {
			name string
			db   *pvc.Database
		}{{"memory", db}, {"batches", pvctest.LendingDatabase(db)}} {
			t.Run(c.name+"/"+v.name, func(t *testing.T) {
				it, _, _, err := newIterBuilder(ctx, v.db).build(plan)
				if err != nil {
					t.Fatal(err)
				}
				defer it.Close()
				if err := it.Open(); err != nil {
					t.Fatal(err)
				}
				var got []string
				for {
					tu, ok, err := it.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					got = append(got, rowStrings([]pvc.Tuple{{Cells: tu.Cells[:len(c.schema)], Ann: tu.Ann}})[0])
				}
				for i := range got {
					got[i] = strings.TrimSuffix(got[i], " : 1")
				}
				if g := fmt.Sprintf("%q", got); strings.ReplaceAll(g, ", ", " ") != c.want {
					t.Errorf("$ emitted %s, want %s", g, c.want)
				}
			})
		}
	}
}

// keyAlphabet is what FuzzRowKey's strings are spelled from: every key
// tag, the text keys' separator 0x1f and its neighbour 0x1e, and the
// letters of their prefixes ("s:", "v:"), so a string that could pass
// for a tag or a separator is always within reach.
var keyAlphabet = []byte{keyInt, keyNegInf, keyPosInf, keyStr, keyExpr, 0x1e, 0x1f, 'a', 's', ':', 'v'}

// keyExprs are the expression cells FuzzRowKey draws from.
var keyExprs = []expr.Expr{
	expr.MustParse("x @sum 1"), expr.MustParse("x @sum 2"),
	expr.MustParse("sum((x @sum 1), (y @sum 1))"), expr.MustParse("y @sum 1"),
}

// keyRows draws two to five rows of one to four columns from the bytes
// of src (zeros once they run out). A cell is, as often as not, a copy
// of the cell above it, so equal cells are common; otherwise an integer
// (0, ±1, the int64 extremes or any eight bytes), a Boolean, ±∞, a
// string of up to four bytes from keyAlphabet, or an expression.
func keyRows(src []byte) [][]pvc.Cell {
	next := func() byte {
		if len(src) == 0 {
			return 0
		}
		b := src[0]
		src = src[1:]
		return b
	}
	w, n := 1+int(next()%4), 2+int(next()%4)
	rows := make([][]pvc.Cell, n)
	for i := range rows {
		rows[i] = make([]pvc.Cell, w)
		for c := range rows[i] {
			b := next()
			if i > 0 && b&1 == 1 {
				rows[i][c] = rows[i-1][c]
				continue
			}
			switch b / 2 % 8 {
			case 0:
				rows[i][c] = pvc.IntCell([]int64{0, 1, -1, math.MinInt64, math.MaxInt64}[next()%5])
			case 1:
				var word [8]byte
				for k := range word {
					word[k] = next()
				}
				rows[i][c] = pvc.IntCell(int64(binary.LittleEndian.Uint64(word[:])))
			case 2:
				rows[i][c] = pvc.ValueCell(value.Bool(next()&1 == 1))
			case 3:
				rows[i][c] = pvc.ValueCell(value.PosInf())
			case 4:
				rows[i][c] = pvc.ValueCell(value.NegInf())
			case 5, 6:
				s := make([]byte, next()%5)
				for k := range s {
					s[k] = keyAlphabet[int(next())%len(keyAlphabet)]
				}
				rows[i][c] = pvc.StringCell(string(s))
			default:
				rows[i][c] = pvc.ExprCell(keyExprs[next()%4])
			}
		}
	}
	return rows
}

// batchOf returns a batch whose row 1 holds the constant cells of row
// (row 0 is filler), or false when row holds an expression.
func batchOf(row []pvc.Cell) (*pvc.Batch, bool) {
	b := &pvc.Batch{Vals: make([][]value.V, len(row)), Strs: make([][]string, len(row)),
		Anns: []expr.Expr{expr.CInt(1), expr.CInt(1)}, Sel: []int32{1}}
	for c, cell := range row {
		switch cell.Kind() {
		case pvc.KindValue:
			b.Vals[c] = []value.V{value.Int(7), cell.Value()}
		case pvc.KindString:
			b.Strs[c] = []string{"filler", cell.Str()}
		default:
			return nil, false
		}
	}
	return b, true
}

// FuzzRowKey holds the binary hash key to Cell.Equal: two rows' keys
// over all their columns are byte-equal exactly when their cells are
// equal column by column, the key table gives them one id exactly then,
// and a row read off a batch's vectors keys to the bytes the same row
// keys to as a tuple.
func FuzzRowKey(f *testing.F) {
	for _, seed := range [][]byte{
		// 0, +∞, −∞ and false (0) in one column.
		{0, 2, 0, 0, 6, 8, 4, 0},
		// ("a␃a", "a") and ("a", "a␃a"): one byte string once the
		// length prefixes are gone, the string tag standing in for one.
		{1, 0, 10, 3, 7, 3, 7, 10, 1, 7, 10, 1, 7, 10, 3, 7, 3, 7},
		// the int64 extremes, −1 and eight arbitrary bytes.
		{0, 2, 0, 3, 0, 4, 0, 2, 2, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88},
		// expressions and strings, copied and fresh, over three columns.
		{2, 3, 14, 1, 10, 2, 6, 6, 1, 14, 2, 1, 15, 11, 3, 10, 9, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		rows := keyRows(src)
		idx := make([]int, len(rows[0]))
		for c := range idx {
			idx[c] = c
		}
		keys := make([][]byte, len(rows))
		var tab keyTable
		ids := make([]int, len(rows))
		for i, cells := range rows {
			r := row{t: pvc.Tuple{Cells: cells}}
			keys[i] = r.appendKey(nil, idx)
			ids[i], _ = tab.intern(keys[i])
			if b, ok := batchOf(cells); ok {
				br := row{b: b, i: 1}
				if got := br.appendKey(nil, idx); !bytes.Equal(got, keys[i]) {
					t.Fatalf("row %v: batch key %x, tuple key %x", cells, got, keys[i])
				}
			}
		}
		for i := range rows {
			if id := tab.find(keys[i]); id != ids[i] {
				t.Fatalf("row %v: find gives id %d, intern gave %d", rows[i], id, ids[i])
			}
			for j := range rows {
				equal := true
				for c := range rows[i] {
					equal = equal && rows[i][c].Equal(rows[j][c])
				}
				if bytes.Equal(keys[i], keys[j]) != equal {
					t.Fatalf("rows %v and %v: equal cells %v, keys %x and %x", rows[i], rows[j], equal, keys[i], keys[j])
				}
				if (ids[i] == ids[j]) != equal {
					t.Fatalf("rows %v and %v: equal cells %v, ids %d and %d", rows[i], rows[j], equal, ids[i], ids[j])
				}
			}
		}
	})
}

// TestKeyTableGrows interns keys past several doublings of the table:
// ids are dense and in first-seen order, every key is found again, and
// a key never interned is not.
func TestKeyTableGrows(t *testing.T) {
	var tab keyTable
	if tab.find(nil) != -1 {
		t.Fatalf("empty table found a key")
	}
	key := func(i int) []byte { return appendValueKey(nil, value.Int(int64(i))) }
	const n = 1000
	for i := range n {
		if id, added := tab.intern(key(i)); id != i || !added {
			t.Fatalf("key %d interned as id %d (added %v)", i, id, added)
		}
	}
	for i := range n {
		if id, added := tab.intern(key(i)); id != i || added {
			t.Fatalf("key %d re-interned as id %d (added %v)", i, id, added)
		}
	}
	if tab.find(key(n)) != -1 {
		t.Fatalf("table of %d keys finds a key never interned", n)
	}
	if len(tab.slots) < 2*n {
		t.Errorf("%d slots for %d keys: grown past ½ load", len(tab.slots), n)
	}
}

// TestSpanCodesMatchBytes holds codeIDs over spanned integer columns to
// the byte-keyed table: over batches whose spans have a negative base,
// reach the int64 extremes (one wrapping past them), hold exactly
// maxCodeIDs offsets or one more (keyed by bytes), or sit beside a
// dictionary-coded string, every row gets from id the id that interning
// its key's bytes in another table gives, in the same order, and from
// find over the finished table the id the bytes find — a miss included.
func TestSpanCodesMatchBytes(t *testing.T) {
	ints := func(ns ...int64) []value.V {
		vs := make([]value.V, len(ns))
		for i, n := range ns {
			vs[i] = value.Int(n)
		}
		return vs
	}
	upTo := func(lo, n int64) []int64 {
		var ns []int64
		for i := range n {
			ns = append(ns, lo+(i*7919)%n)
		}
		return ns
	}
	// batch is one batch of a value column k with span sp and, when strs
	// is set, a coded string column s beside it (its dictionary in
	// first-seen order).
	batch := func(sp pvc.Span, ks []int64, strs ...string) *pvc.Batch {
		b := &pvc.Batch{Vals: [][]value.V{ints(ks...), nil}, Strs: [][]string{nil, nil}, Spans: []pvc.Span{sp, {}}}
		for i := range ks {
			b.Anns, b.Sel = append(b.Anns, expr.CInt(1)), append(b.Sel, int32(i))
		}
		if strs != nil {
			b.Strs[1], b.Dicts, b.Codes = strs, [][]string{nil, nil}, [][]uint8{nil, make([]uint8, len(strs))}
			for i, s := range strs {
				if !slices.Contains(b.Dicts[1], s) {
					b.Dicts[1] = append(b.Dicts[1], s)
				}
				b.Codes[1][i] = uint8(slices.Index(b.Dicts[1], s))
			}
		}
		return b
	}
	const lo, hi = math.MinInt64, math.MaxInt64
	cases := []struct {
		name    string
		idx     []int
		batches []*pvc.Batch
		coded   []bool // per batch: keyed by codes
	}{
		{"negative base", []int{0}, []*pvc.Batch{
			batch(pvc.Span{Base: -10, N: 8}, []int64{-3, -10, -3, -7, -10}),
			batch(pvc.Span{Base: -20, N: 32}, []int64{-7, -20, -5, -7, -3}),
		}, []bool{true, true}},
		{"int64 extremes", []int{0}, []*pvc.Batch{
			batch(pvc.Span{Base: hi - 1, N: 2}, []int64{hi, hi - 1, hi}),
			batch(pvc.Span{Base: lo, N: 4}, []int64{lo + 3, lo, lo + 3}),
			batch(pvc.Span{Base: hi, N: 2}, []int64{lo, hi, lo, hi}), // lo − hi wraps to 1
			batch(pvc.Span{Base: hi - 2, N: 8}, []int64{lo + 1, hi, lo + 1}),
		}, []bool{true, true, true, true}},
		{"maxCodeIDs offsets", []int{0}, []*pvc.Batch{
			batch(pvc.Span{Base: -5, N: maxCodeIDs}, upTo(-5, maxCodeIDs)),
			batch(pvc.Span{Base: -6, N: maxCodeIDs + 1}, upTo(-6, maxCodeIDs+1)),
			batch(pvc.Span{Base: 0, N: maxCodeIDs}, upTo(0, 3000)),
		}, []bool{true, false, true}},
		{"string and span", []int{1, 0}, []*pvc.Batch{
			batch(pvc.Span{Base: -2, N: 4}, []int64{1, -2, 1, 0, -2, 1}, "b", "a", "b", "a", "a", "b"),
			batch(pvc.Span{Base: 0, N: 1024}, []int64{0, 1, 1, 1023, 0}, "a", "a", "c", "b", "a"),
			batch(pvc.Span{Base: 0, N: 4096}, []int64{0, 1}, "a", "b"), // 2 × 4096 combinations: bytes
		}, []bool{true, true, false}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var coded, plain keyTable
			var ids codeIDs
			for bi, b := range c.batches {
				for i := range b.Sel {
					r := row{b: b, i: i, batch: bi + 1}
					id, added := ids.id(&coded, &r, c.idx)
					want, wantAdded := plain.intern(r.appendKey(nil, c.idx))
					if id != want || added != wantAdded {
						t.Fatalf("batch %d row %d: id %d (added %v), bytes give %d (added %v)", bi, i, id, added, want, wantAdded)
					}
					if i == 0 && ids.on != c.coded[bi] {
						t.Fatalf("batch %d keyed by codes: %v, want %v", bi, ids.on, c.coded[bi])
					}
				}
			}
			// find over the finished table, R's rows probing a table
			// that lacks the first batch's last key.
			probe := keyTable{}
			last := c.batches[0]
			skip := row{b: last, i: len(last.Sel) - 1, batch: 1}
			skipKey := skip.appendKey(nil, c.idx)
			for bi, b := range c.batches {
				for i := range b.Sel {
					r := row{b: b, i: i, batch: bi + 1}
					if key := r.appendKey(nil, c.idx); !bytes.Equal(key, skipKey) {
						probe.intern(key)
					}
				}
			}
			var found codeIDs
			for bi, b := range c.batches {
				for i := range b.Sel {
					r := row{b: b, i: i, batch: bi + 1}
					got, want := found.find(&probe, &r, c.idx), probe.find(r.appendKey(nil, c.idx))
					if got != want {
						t.Fatalf("batch %d row %d: find %d, bytes find %d", bi, i, got, want)
					}
				}
			}
		})
	}
}
