package pvc

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/value"
)

// sortExprs are the expression cells sortRelation draws from.
var sortExprs = []expr.Expr{
	expr.MustParse("x @sum 1"), expr.MustParse("x @sum 2"),
	expr.MustParse("sum((x @sum 1), (y @sum 1))"), expr.MustParse("y @sum 1"),
}

// sortRelation draws a relation for the Sort tests from the bytes of src
// (zeros once they run out): one to four columns of value, string and
// module type; strings of up to three bytes, mostly from {0x00, 0x1e,
// 0x1f, 'a'} and otherwise anywhere in 0x00–0x1f, so keys are often
// prefixes of one another and a 0x1f meets the separator; module cells
// that are values on some rows and expressions on others; and few
// distinct cells, so leading constant cells often tie. A tuple's
// annotation is its position, so the sorted order reads off as a
// permutation.
func sortRelation(src []byte) *Relation {
	next := func() byte {
		if len(src) == 0 {
			return 0
		}
		b := src[0]
		src = src[1:]
		return b
	}
	schema := make(Schema, 1+next()%4)
	for i := range schema {
		schema[i] = Col{Name: string(rune('a' + i)), Type: ColType(next() % 3), Agg: algebra.Sum}
	}
	r := NewRelation("r", schema)
	for i := range int(next() % 32) {
		cells := make([]Cell, len(schema))
		for j, col := range schema {
			b := next()
			switch {
			case col.Type == TString:
				s := make([]byte, b%4)
				for k := range s {
					if c := next(); c&0x80 != 0 {
						s[k] = c % 0x20
					} else {
						s[k] = []byte{0x00, 0x1e, 0x1f, 'a'}[c%4]
					}
				}
				cells[j] = StringCell(string(s))
			case col.Type == TModule && b&1 == 1:
				cells[j] = ExprCell(sortExprs[b/2%4])
			default:
				cells[j] = ValueCell([]value.V{value.Int(0), value.Int(1), value.Int(10), value.Int(-1)}[b/2%4])
			}
		}
		r.Tuples = append(r.Tuples, Tuple{Cells: cells, Ann: expr.CInt(int64(i))})
	}
	return r
}

// checkSortOrder sorts r and holds the permutation to sort.SliceStable on
// full Tuple.Keys. It returns how many ordered pairs of distinct keys
// are prefix and extension, the case in which Sort renders full keys.
func checkSortOrder(t *testing.T, r *Relation) (prefixPairs int) {
	t.Helper()
	keys := make([]string, len(r.Tuples))
	want := make([]int, len(r.Tuples))
	for i, tup := range r.Tuples {
		keys[i], want[i] = tup.Key(), i
	}
	for i := range keys {
		for j := range keys {
			if keys[i] != keys[j] && strings.HasPrefix(keys[j], keys[i]) {
				prefixPairs++
			}
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
	r.Sort()
	for i, tup := range r.Tuples {
		if got := tup.Ann.(expr.Const).V; got != value.Int(int64(want[i])) {
			t.Fatalf("position %d holds tuple %s, want %d (keys %q)", i, got, want[i], keys)
		}
	}
	return prefixPairs
}

// TestRelationSortMatchesKeyOrder holds Relation.Sort, which compares
// leading constant cells first and renders a full Key only on a prefix
// tie, to a stable sort on full Keys over random relations.
func TestRelationSortMatchesKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 256)
	prefixPairs := 0
	for range 3000 {
		rng.Read(src)
		prefixPairs += checkSortOrder(t, sortRelation(src))
	}
	if prefixPairs == 0 {
		t.Error("no relation had a key that is a prefix of another")
	}
}

// FuzzRelationSort is TestRelationSortMatchesKeyOrder over fuzzed
// generator bytes.
func FuzzRelationSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0, 20, 1, 3, 0x9f, 0x1f, 0, 3, 2, 'a', 0x1f, 1, 5})
	f.Add([]byte("\x02\x02\x01\x10\x03\x1f\x1f\x1f\x00\x01\x03\x00\x1f\x00\x02"))
	f.Fuzz(func(t *testing.T, src []byte) {
		checkSortOrder(t, sortRelation(src))
	})
}
