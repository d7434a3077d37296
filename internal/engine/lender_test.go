package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/pvc/pvctest"
	"pvcagg/internal/testutil"
	"pvcagg/internal/value"
)

// lenderDB is iterDB plus M, a base table with an aggregation column —
// σ atoms over X are not hintable, so the scan's lent cells pass through
// σ untouched and reach whatever sits above it.
func lenderDB() *pvc.Database {
	db := iterDB()
	m := pvc.NewRelation("M", pvc.Schema{
		{Name: "a", Type: pvc.TValue},
		{Name: "X", Type: pvc.TModule, Agg: algebra.Sum},
	})
	for i, row := range []struct {
		a int64
		x string
	}{{1, "ir0 @sum 10"}, {2, "ir1 @sum 30"}, {1, "ir2 @sum 5"}} {
		x := varName("im", i)
		db.Registry.DeclareBool(x, 0.5)
		m.MustInsert(expr.V(x), pvc.IntCell(row.a), pvc.ExprCell(expr.MustParse(row.x)))
	}
	db.Add(m)
	return db
}

// lenderPlans adds to the corpus the shapes in which a lent row travels
// furthest: through σ (hintable, non-hintable, mixed) to the root, to π,
// π̂, ∪, $ and either side of a ⋈.
func lenderPlans() []Plan {
	scan := func(t string) Plan { return &Scan{Table: t} }
	sel := func(in Plan, atoms ...Atom) Plan { return &Select{Input: in, Pred: Where(atoms...)} }
	bLE20 := ColTheta("b", value.LE, pvc.IntCell(20))
	xGE10 := ColTheta("X", value.GE, pvc.IntCell(10))
	return append(iterPlans(),
		sel(scan("M"), xGE10),
		sel(scan("M"), ColTheta("a", value.EQ, pvc.IntCell(1)), xGE10),
		sel(scan("W"), ColTheta("name", value.EQ, pvc.StringCell("x"))),
		sel(scan("W"), ColTheta("name", value.GT, pvc.IntCell(3))), // mixed kinds
		&Prune{Input: sel(scan("R"), bLE20), Cols: []string{"b"}},
		&Project{Input: sel(scan("R"), bLE20), Cols: []string{"a"}},
		&Union{L: sel(scan("R"), bLE20), R: &Prune{Input: scan("R"), Cols: []string{"a", "b"}}},
		&Union{L: sel(scan("M"), xGE10), R: scan("M")}, // constraint 2: must error alike
		&Join{L: sel(scan("R"), bLE20), R: sel(scan("S2"), ColTheta("c", value.LE, pvc.IntCell(200)))},
		&Join{L: scan("M"), R: sel(scan("M"), xGE10)},
		&Product{L: scan("W"), R: &Rename{Input: sel(scan("R"), bLE20), From: "b", To: "b2"}},
		&GroupAgg{Input: sel(scan("R"), bLE20), Aggs: []AggSpec{{Out: "N", Agg: algebra.Count}}},
		&GroupAgg{Input: sel(scan("W"), ColTheta("b", value.GE, pvc.IntCell(20))), GroupBy: []string{"name"},
			Aggs: []AggSpec{{Out: "N", Agg: algebra.Count}, {Out: "S", Agg: algebra.Sum, Over: "b"}}},
		// ⋈ probing R a batch at a time, two matches for most probe rows.
		&Join{L: scan("R"), R: &Rename{Input: scan("R"), From: "a", To: "a2"}},
		&GroupAgg{Input: &Join{L: scan("R"), R: scan("W")}, GroupBy: []string{"name"}, Aggs: []AggSpec{{Out: "N", Agg: algebra.Count}}},
	)
}

func explainShape(n *ExplainNode) string {
	s := n.label() + "("
	for _, c := range n.Children {
		s += explainShape(c)
	}
	return s + ")"
}

// sameOutcome asserts two runs of one plan agree: the same error text,
// or deeply equal relations.
func sameOutcome(t *testing.T, what string, want *pvc.Relation, errW error, got *pvc.Relation, errG error) {
	t.Helper()
	if (errW == nil) != (errG == nil) || (errW != nil && errW.Error() != errG.Error()) {
		t.Fatalf("%s: in-memory err %v, lender err %v", what, errW, errG)
	}
	if errW == nil {
		relEqual(t, want, got)
	}
}

// TestPoisonedLenderDifferential is the guard of the lent-row and
// lent-batch contracts (pvc.TupleIter, pvc.BatchIter): every plan of the
// corpus must compute, bit for bit, over tables served by a provider
// that poisons each row buffer and each batch as soon as its loan ends
// what it computes over the same tables in memory. Lending R alone,
// everything but R, and everything puts the lender on the probe side,
// the build side and both sides of every ⋈, × and ∪. Each is run over
// exact lenders — which filter on every hint and drop zero rows, so a σ
// whose atoms all reach the scan is discharged — and over inexact ones,
// which ignore the hints, so every σ stays and must still give the same
// answer, and over dictionary lenders, whose batches code their string
// columns with dictionaries that change order from batch to batch, so
// π/∪ and $ group their rows by codes. StreamEvalPlan and EXPLAIN
// ANALYZE are both held to it, and
// every node of the analyzed tree to the in-memory run's actual rows
// (sameActuals). The in-memory run's analyzed tree must have Explain's shape:
// one node per plan operator. The in-memory reference is not independent
// of what it guards: in-memory π̂ and ⋈/× lend their own rows through the
// same keep sites, so a missing copy there corrupts both sides alike.
// TestLendersAtKeepSites holds those sites to answers written by hand.
func TestPoisonedLenderDifferential(t *testing.T) {
	ctx := context.Background()
	db := lenderDB()
	type variant struct {
		name  string
		db    *pvc.Database
		exact bool
	}
	var variants []variant
	for _, m := range []struct {
		prefix string
		exact  bool
		lend   func(*pvc.Database, ...string) *pvc.Database
	}{{"", true, pvctest.LendingDatabase}, {"inexact/", false, pvctest.InexactLendingDatabase}, {"dict/", true, pvctest.DictLendingDatabase}} {
		variants = append(variants,
			variant{m.prefix + "all", m.lend(db), m.exact},
			variant{m.prefix + "R", m.lend(db, "R"), m.exact},
			variant{m.prefix + "notR", m.lend(db, "S2", "W", "E", "M"), m.exact})
	}
	for i, plan := range lenderPlans() {
		want, _, errW := StreamEvalPlan(ctx, db, plan)
		_, _, wantEx, _ := StreamEvalPlanExplain(ctx, db, plan)
		if errW == nil && explainShape(Explain(db, plan)) != explainShape(wantEx) {
			t.Errorf("plan%02d: EXPLAIN draws %s, EXPLAIN ANALYZE %s", i, explainShape(Explain(db, plan)), explainShape(wantEx))
		}
		for _, v := range variants {
			t.Run(fmt.Sprintf("plan%02d/%s", i, v.name), func(t *testing.T) {
				got, _, errG := StreamEvalPlan(ctx, v.db, plan)
				sameOutcome(t, "stream", want, errW, got, errG)

				got, _, gotEx, errG := StreamEvalPlanExplain(ctx, v.db, plan)
				sameOutcome(t, "analyze", want, errW, got, errG)
				if errG == nil {
					if explainShape(gotEx) != explainShape(wantEx) {
						t.Fatalf("EXPLAIN shape: got %s, want %s", explainShape(gotEx), explainShape(wantEx))
					}
					if gotEx.ActualRows != int64(len(want.Tuples)) {
						t.Errorf("root actual rows = %d, want %d", gotEx.ActualRows, len(want.Tuples))
					}
					sameActuals(t, wantEx, gotEx, v.exact, -1)
				}
			})
		}
	}
}

// sameActuals holds every node of an analyzed tree over lenders to the
// actual rows of the in-memory run's node, with one freedom: under an
// exact lender, a scan and the δ, π̂ and σ nodes between it and the
// nearest σ above it (floor, that σ's actual rows; -1 when there is
// none) may report fewer — the rows the scan filtered out — but no fewer
// than that σ, which reports its output rows even when it was
// discharged into the scan.
func sameActuals(t *testing.T, want, got *ExplainNode, exact bool, floor int64) {
	t.Helper()
	if exact && floor >= 0 {
		if got.ActualRows < floor || got.ActualRows > want.ActualRows {
			t.Errorf("%s: actual rows %d, want between the σ's %d and %d", got.label(), got.ActualRows, floor, want.ActualRows)
		}
	} else if got.ActualRows != want.ActualRows {
		t.Errorf("%s: actual rows %d, want %d", got.label(), got.ActualRows, want.ActualRows)
	}
	below := int64(-1)
	switch {
	case got.Op == "σ":
		below = got.ActualRows
	case got.Op == "δ" || got.Op == "π̂":
		below = floor
	}
	for k := range got.Children {
		sameActuals(t, want.Children[k], got.Children[k], exact, below)
	}
}

// rowStrings renders tuples as "cell cell … : annotation", expressions
// in full.
func rowStrings(ts []pvc.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		cells := make([]string, len(t.Cells))
		for j, c := range t.Cells {
			cells[j] = c.String()
		}
		out[i] = strings.Join(cells, " ") + " : " + expr.String(t.Ann)
	}
	return out
}

// TestLendersAtKeepSites holds every site that keeps a tuple across a
// Next of its producer to answers written by hand, with the row coming
// from an in-memory π̂ or ⋈ — lenders whose missing copy the poisoned
// differential cannot see, its reference running them too. Each plan
// yields at least three distinct rows, so a kept row that still aliases
// its lender's buffer shows up as a repeat of the last one. The last
// case serves R from a pvctest.Lender to a ⋈ that probes it a batch at
// a time, each batch poisoned at the next one: the scan is pulled once
// per block and once more for the end.
func TestLendersAtKeepSites(t *testing.T) {
	ctx := context.Background()
	db := iterDB()
	scan := func(name string) Plan { return &Scan{Table: name} }
	pruneR := func(cols ...string) Plan { return &Prune{Input: scan("R"), Cols: cols} }
	joinRS := func() Plan { return &Join{L: scan("R"), R: scan("S2")} }
	count := []AggSpec{{Out: "N", Agg: algebra.Count}}
	cases := []struct {
		site string
		plan Plan
		want []string
		lend string // the table served by a Lender, if any
	}{
		{"root/π̂", pruneR("b", "a"), []string{
			"10 1 : ir0", "10 3 : ir4", "20 1 : ir1", "30 2 : ir2", "30 2 : ir3"}, ""},
		{"root/σ/π̂", &Select{Input: pruneR("b", "a"), Pred: Where(ColTheta("b", value.LE, pvc.IntCell(20)))}, []string{
			"10 1 : ir0", "10 3 : ir4", "20 1 : ir1"}, ""},
		{"root/⋈", joinRS(), []string{
			"1 10 100 : (ir0*is0)", "1 20 100 : (ir1*is0)", "2 30 200 : (ir2*is1)", "2 30 200 : (ir3*is1)"}, ""},
		{"∪/π̂", &Union{L: pruneR("a", "b"), R: scan("E")}, []string{
			"1 10 : ir0", "1 20 : ir1", "2 30 : (ir2 + ir3)", "3 10 : ir4"}, ""},
		{"∪/⋈", &Union{L: joinRS(), R: &Select{Input: joinRS(), Pred: Where(ColTheta("c", value.GE, pvc.IntCell(1000)))}}, []string{
			"1 10 100 : (ir0*is0)", "1 20 100 : (ir1*is0)", "2 30 200 : ((ir2*is1) + (ir3*is1))"}, ""},
		{"build/π̂", &Join{L: scan("S2"), R: pruneR("b", "a")}, []string{
			"1 100 10 : (is0*ir0)", "1 100 20 : (is0*ir1)", "2 200 30 : (is1*ir2)", "2 200 30 : (is1*ir3)"}, ""},
		{"build/⋈", &Join{L: scan("W"), R: joinRS()}, []string{
			"x 10 1 100 : (iw0*ir0*is0)", "x 30 2 200 : (iw2*ir2*is1)", "x 30 2 200 : (iw2*ir3*is1)", "y 20 1 100 : (iw1*ir1*is0)"}, ""},
		{"π/π̂", &Project{Input: pruneR("b", "a"), Cols: []string{"a"}}, []string{
			"1 : (ir0 + ir1)", "2 : (ir2 + ir3)", "3 : ir4"}, ""},
		{"π/⋈", &Project{Input: joinRS(), Cols: []string{"b"}}, []string{
			"10 : (ir0*is0)", "20 : (ir1*is0)", "30 : ((ir2*is1) + (ir3*is1))"}, ""},
		{"$/π̂", &GroupAgg{Input: pruneR("b", "a"), GroupBy: []string{"a"}, Aggs: count}, []string{
			"1 count((ir0 @count m:1), (ir1 @count m:1)) : [(ir0 + ir1) != 0]",
			"2 count((ir2 @count m:1), (ir3 @count m:1)) : [(ir2 + ir3) != 0]",
			"3 (ir4 @count m:1) : [ir4 != 0]"}, ""},
		{"$/⋈", &GroupAgg{Input: joinRS(), GroupBy: []string{"b"}, Aggs: count}, []string{
			"10 ((ir0*is0) @count m:1) : [(ir0*is0) != 0]",
			"20 ((ir1*is0) @count m:1) : [(ir1*is0) != 0]",
			"30 count(((ir2*is1) @count m:1), ((ir3*is1) @count m:1)) : [((ir2*is1) + (ir3*is1)) != 0]"}, ""},
		{"probe/batch", &Join{L: scan("R"), R: &Rename{Input: scan("R"), From: "a", To: "a2"}}, []string{
			"1 10 1 : (ir0*ir0)", "1 10 3 : (ir0*ir4)", "1 20 1 : (ir1*ir1)",
			"2 30 2 : (ir2*ir2)", "2 30 2 : (ir2*ir3)", "2 30 2 : (ir3*ir2)", "2 30 2 : (ir3*ir3)",
			"3 10 1 : (ir4*ir0)", "3 10 3 : (ir4*ir4)"}, "R"},
	}
	for _, c := range cases {
		t.Run(c.site, func(t *testing.T) {
			check := func(how string, got []pvc.Tuple) {
				t.Helper()
				if g := rowStrings(got); strings.Join(g, "\n") != strings.Join(c.want, "\n") {
					t.Errorf("%s:\ngot  %q\nwant %q", how, g, c.want)
				}
			}
			db := db
			if c.lend != "" {
				db = pvctest.LendingDatabase(db, c.lend)
			}
			rel, _, err := StreamEvalPlan(ctx, db, c.plan)
			if err != nil {
				t.Fatal(err)
			}
			check("StreamEvalPlan", rel.Tuples)
			rel, _, ex, err := StreamEvalPlanExplain(ctx, db, c.plan)
			if err != nil {
				t.Fatal(err)
			}
			check("EXPLAIN ANALYZE", rel.Tuples)
			if probe := ex.Children[0]; c.lend != "" && probe.NextCalls != 3 {
				t.Errorf("probe %s pulled %d times, want 3: two batches and the end", probe.label(), probe.NextCalls)
			}
		})
	}
}

// vecTable is a provider that serves a relation of constant cells from
// column vectors built once, vecBlock rows a batch, refilling one lent
// Batch: a batch scan that allocates per scan, never per block or row.
// It serves no rows through Next. A coded one (newCodedVecTable) also
// codes its string columns, a dictionary per batch in first-seen order,
// reversed in odd batches.
type vecTable struct {
	rel   *pvc.Relation
	vals  [][]value.V
	strs  [][]string
	dicts [][][]string // per column, per batch; nil unless coded
	codes [][]uint8    // per column; nil unless coded
	anns  []expr.Expr
	sel   []int32
}

func newCodedVecTable(rel *pvc.Relation) *vecTable {
	v := newVecTable(rel)
	v.dicts, v.codes = make([][][]string, len(rel.Schema)), make([][]uint8, len(rel.Schema))
	for c, strs := range v.strs {
		if strs == nil {
			continue
		}
		for lo := 0; lo < len(strs); lo += vecBlock {
			block := strs[lo:min(lo+vecBlock, len(strs))]
			var dict []string
			for _, s := range block {
				if !slices.Contains(dict, s) {
					dict = append(dict, s)
				}
			}
			if len(v.dicts[c])%2 == 1 {
				slices.Reverse(dict)
			}
			for _, s := range block {
				v.codes[c] = append(v.codes[c], uint8(slices.Index(dict, s)))
			}
			v.dicts[c] = append(v.dicts[c], dict)
		}
	}
	return v
}

const vecBlock = 64

func newVecTable(rel *pvc.Relation) *vecTable {
	v := &vecTable{rel: rel, vals: make([][]value.V, len(rel.Schema)), strs: make([][]string, len(rel.Schema))}
	for i, tu := range rel.Tuples {
		for c, cell := range tu.Cells {
			if cell.Kind() == pvc.KindString {
				v.strs[c] = append(v.strs[c], cell.Str())
			} else {
				v.vals[c] = append(v.vals[c], cell.Value())
			}
		}
		v.anns = append(v.anns, tu.Ann)
		if i < vecBlock {
			v.sel = append(v.sel, int32(i))
		}
	}
	return v
}

func (v *vecTable) TableName() string  { return v.rel.Name }
func (v *vecTable) Schema() pvc.Schema { return v.rel.Schema }
func (v *vecTable) Rows() int64        { return int64(v.rel.Len()) }

func (v *vecTable) NewScan(_ context.Context, opts pvc.ScanOptions) (pvc.TupleIter, error) {
	if opts.Cols != nil || opts.Hints != nil {
		return nil, fmt.Errorf("vecTable: scan options %+v", opts)
	}
	n := len(v.rel.Schema)
	sc := &vecScan{v: v, b: pvc.Batch{Vals: make([][]value.V, n), Strs: make([][]string, n)}}
	if v.codes != nil {
		sc.b.Dicts, sc.b.Codes = make([][]string, n), make([][]uint8, n)
	}
	return sc, nil
}

type vecScan struct {
	v  *vecTable
	b  pvc.Batch
	lo int
}

func (s *vecScan) Next() (pvc.Tuple, bool, error) {
	return pvc.Tuple{}, false, fmt.Errorf("vecTable: rows are served by NextBatch")
}

func (s *vecScan) NextBatch() (*pvc.Batch, bool, error) {
	if s.lo == len(s.v.anns) {
		return nil, false, nil
	}
	hi := min(s.lo+vecBlock, len(s.v.anns))
	for c := range s.b.Vals {
		if s.v.strs[c] != nil {
			s.b.Strs[c] = s.v.strs[c][s.lo:hi]
			if s.v.codes != nil {
				s.b.Dicts[c], s.b.Codes[c] = s.v.dicts[c][s.lo/vecBlock], s.v.codes[c][s.lo:hi]
			}
		} else {
			s.b.Vals[c] = s.v.vals[c][s.lo:hi]
		}
	}
	s.b.Anns, s.b.Sel = s.v.anns[s.lo:hi], s.v.sel[:hi-s.lo]
	s.lo = hi
	return &s.b, true, nil
}

func (s *vecScan) Close() error { return nil }

// flatAllocs drains plan over R, which holds 200 and then 2 000 rows in
// two groups of (g, h), and K, which holds those two keys once each; it
// fails unless plan yields two rows, or when the larger input allocates
// more than the smaller one plus 2. With vectors set, R is a vecTable.
func flatAllocs(t *testing.T, what string, plan Plan, vectors bool) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	schema := pvc.Schema{{Name: "g", Type: pvc.TString}, {Name: "h", Type: pvc.TValue}}
	groups := []string{"returned", "shipped"}
	allocs := func(rows int) float64 {
		db := pvc.NewDatabase(algebra.Natural)
		r := pvc.NewRelation("R", append(schema.Clone(), pvc.Col{Name: "b", Type: pvc.TValue}))
		for i := 0; i < rows; i++ {
			r.MustInsert(expr.CInt(1), pvc.StringCell(groups[i%2]), pvc.IntCell(int64(i%2)), pvc.IntCell(int64(i)))
		}
		if vectors {
			db.AddProvider(newVecTable(r))
		} else {
			db.Add(r)
		}
		k := pvc.NewRelation("K", append(schema.Clone(), pvc.Col{Name: "k", Type: pvc.TValue}))
		for i, g := range groups {
			k.MustInsert(expr.CInt(1), pvc.StringCell(g), pvc.IntCell(int64(i)), pvc.IntCell(int64(i)))
		}
		db.Add(k)
		return testing.AllocsPerRun(5, func() {
			it, _, _, err := newIterBuilder(ctx, db).build(plan)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
			for n := 0; ; n++ {
				if _, ok, err := it.Next(); err != nil {
					t.Fatal(err)
				} else if !ok {
					if n != 2 {
						t.Fatalf("%d groups, want 2", n)
					}
					return
				}
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	t.Logf("%s: %.0f allocations for 200 rows, %.0f for 2000", what, small, large)
	if large > small+2 {
		t.Errorf("%s: allocations grow with rows: %.0f for 200, %.0f for 2000", what, small, large)
	}
}

// groupGH is $ (COUNT and SUM of b) grouped by g, h over in.
func groupGH(in Plan) Plan {
	return &GroupAgg{Input: in, GroupBy: []string{"g", "h"},
		Aggs: []AggSpec{{Out: "N", Agg: algebra.Count}, {Out: "S", Agg: algebra.Sum, Over: "b"}}}
}

// TestGroupKeyNoAllocOnHit pins the allocation shape of the keyed
// operators: each builds a row's key into a reused buffer and looks it
// up in its key table without allocating, so ten times the rows — every
// one of them a hit on an existing group or bucket — allocate no more:
// $ and π over a scan, and a ⋈ that probes a batch scan's vectors (its
// 1·1 annotations multiplied without a Product) under $.
func TestGroupKeyNoAllocOnHit(t *testing.T) {
	flatAllocs(t, "$ over a scan", groupGH(&Scan{Table: "R"}), false)
	flatAllocs(t, "π over a scan", &Project{Input: &Scan{Table: "R"}, Cols: []string{"g", "h"}}, false)
	flatAllocs(t, "$ over ⋈ probed over a batch scan", groupGH(&Join{L: &Scan{Table: "R"}, R: &Scan{Table: "K"}}), true)
}

// TestPruneNoAllocPerRow pins the lent π̂ row: over an in-memory scan, π̂
// refills one row, σ passes it on or drops it, and $ copies only a new
// group's cells, so ten times the rows allocate no more.
func TestPruneNoAllocPerRow(t *testing.T) {
	flatAllocs(t, "$ over σ over π̂", groupGH(&Select{Input: &Prune{Input: &Scan{Table: "R"}, Cols: []string{"b", "h", "g"}},
		Pred: Where(ColTheta("b", value.GE, pvc.IntCell(2)))}), false)
}

// TestCodedGroupsInternPerBatch: over a batch scan whose key columns are
// all coded, π and $ key and intern a code combination once per batch
// and find every later row of it by its codes, so they intern at most
// (combinations × batches) keys, not one a row — and give the answers
// they give in memory. Over the same vectors uncoded they intern one key
// a row, except $ without grouping, whose empty key has no column to be
// plain and is interned once per batch either way.
func TestCodedGroupsInternPerBatch(t *testing.T) {
	ctx := context.Background()
	const rows = 2000
	flags, states := []string{"A", "N", "R"}, []string{"F", "O"}
	r := pvc.NewRelation("R", pvc.Schema{{Name: "f", Type: pvc.TString}, {Name: "s", Type: pvc.TString}, {Name: "b", Type: pvc.TValue}})
	for i := 0; i < rows; i++ {
		r.MustInsert(nil, pvc.StringCell(flags[i%3]), pvc.StringCell(states[i/7%2]), pvc.IntCell(int64(i)))
	}
	mem := pvc.NewDatabase(algebra.Boolean)
	mem.Add(r)
	batches := (rows + vecBlock - 1) / vecBlock
	for _, c := range []struct {
		name   string
		plan   Plan
		combos int
		plain  int // interns over the uncoded vectors
	}{
		{"$ by f, s", &GroupAgg{Input: &Scan{Table: "R"}, GroupBy: []string{"f", "s"},
			Aggs: []AggSpec{{Out: "N", Agg: algebra.Count}, {Out: "S", Agg: algebra.Sum, Over: "b"}}}, 6, rows},
		{"$ by s", &GroupAgg{Input: &Scan{Table: "R"}, GroupBy: []string{"s"}, Aggs: []AggSpec{{Out: "M", Agg: algebra.Max, Over: "b"}}}, 2, rows},
		{"$ ungrouped", &GroupAgg{Input: &Scan{Table: "R"}, Aggs: []AggSpec{{Out: "N", Agg: algebra.Count}}}, 1, batches},
		{"π onto f, s", &Project{Input: &Scan{Table: "R"}, Cols: []string{"f", "s"}}, 6, rows},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := eval(mem, c.plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, coded := range []bool{true, false} {
				db := pvc.NewDatabase(algebra.Boolean)
				if coded {
					db.AddProvider(newCodedVecTable(r))
				} else {
					db.AddProvider(newVecTable(r))
				}
				it, schema, name, err := newIterBuilder(ctx, db).build(c.plan)
				if err != nil {
					t.Fatal(err)
				}
				if err := it.Open(); err != nil {
					t.Fatal(err)
				}
				got := pvc.NewRelation(name, schema)
				if err := drainRoot(ctx, it, got); err != nil {
					t.Fatal(err)
				}
				it.Close()
				relEqual(t, want, got)
				var interns int
				switch sink := it.(type) {
				case *groupAggIter:
					interns = sink.tab.interns
				case *groupIter:
					interns = sink.tab.interns
				}
				switch {
				case coded && interns > c.combos*batches:
					t.Errorf("coded: %d interns for %d rows, want at most %d combinations × %d batches", interns, rows, c.combos, batches)
				case !coded && interns != c.plain:
					t.Errorf("plain: %d interns for %d rows, want %d", interns, rows, c.plain)
				}
			}
		})
	}
}
