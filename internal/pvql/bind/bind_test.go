package bind

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/pvql"
)

// shopDB builds the paper's Figure 1 database: S(sid, shop), PS(sid,
// pid, price), P1/P2(pid, weight), all tuple-independent at p = 1/2.
func shopDB(t testing.TB) *pvc.Database {
	t.Helper()
	db := pvc.NewDatabase(algebra.Boolean)
	declare := func(name string) expr.Expr {
		db.Registry.DeclareBool(name, 0.5)
		return expr.V(name)
	}
	s := pvc.NewRelation("S", pvc.Schema{
		{Name: "sid", Type: pvc.TValue},
		{Name: "shop", Type: pvc.TString},
	})
	for i, shop := range []string{"M&S", "M&S", "M&S", "Gap", "Gap"} {
		s.MustInsert(declare(fmt.Sprintf("x%d", i+1)), pvc.IntCell(int64(i+1)), pvc.StringCell(shop))
	}
	db.Add(s)
	ps := pvc.NewRelation("PS", pvc.Schema{
		{Name: "sid", Type: pvc.TValue},
		{Name: "pid", Type: pvc.TValue},
		{Name: "price", Type: pvc.TValue},
	})
	for _, r := range [][3]int64{
		{1, 1, 10}, {1, 2, 50}, {2, 1, 11}, {2, 2, 60}, {3, 3, 15},
		{3, 4, 40}, {4, 1, 15}, {4, 3, 60}, {5, 1, 10},
	} {
		ps.MustInsert(declare(fmt.Sprintf("y%d%d", r[0], r[1])), pvc.IntCell(r[0]), pvc.IntCell(r[1]), pvc.IntCell(r[2]))
	}
	db.Add(ps)
	for tbl, rows := range map[string][][2]int64{
		"P1": {{1, 4}, {2, 8}, {3, 7}, {4, 6}},
		"P2": {{1, 5}},
	} {
		p := pvc.NewRelation(tbl, pvc.Schema{
			{Name: "pid", Type: pvc.TValue},
			{Name: "weight", Type: pvc.TValue},
		})
		for i, r := range rows {
			p.MustInsert(declare(fmt.Sprintf("z%s%d", tbl, i)), pvc.IntCell(r[0]), pvc.IntCell(r[1]))
		}
		db.Add(p)
	}
	return db
}

func mustBind(t *testing.T, db *pvc.Database, src string) engine.Plan {
	t.Helper()
	q, err := pvql.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	plan, err := Bind(db, q)
	if err != nil {
		t.Fatalf("Bind(%q): %v", src, err)
	}
	return plan
}

const fig1Q2 = `SELECT shop FROM (
  SELECT shop, MAX(price) AS P FROM (
    SELECT shop, price FROM S JOIN PS JOIN (SELECT * FROM P1 UNION SELECT * FROM P2)
  ) GROUP BY shop
) WHERE P <= 50`

func TestBindFigure1Q2(t *testing.T) {
	db := shopDB(t)
	plan := mustBind(t, db, fig1Q2)
	want := "π[shop](σ[P<=50]($[shop;P←MAX(price)](π[shop,price](((S ⋈ PS) ⋈ (P1 ∪ P2))))))"
	if plan.String() != want {
		t.Fatalf("naive lowering:\n got %s\nwant %s", plan, want)
	}
	if _, _, err := engine.StreamEvalPlan(context.Background(), db, plan); err != nil {
		t.Fatalf("bound plan does not evaluate: %v", err)
	}
}

func TestBindShapes(t *testing.T) {
	db := shopDB(t)
	cases := []struct {
		src, want string
	}{
		{"SELECT * FROM S", "S"},
		{"SELECT sid, shop FROM S", "S"},
		{"SELECT shop FROM S", "π[shop](S)"},
		{"SELECT shop AS store FROM S", "π[store](δ[store←shop](S))"},
		{"SELECT sid AS id, shop FROM S", "δ[id←sid](S)"},
		{"SELECT * FROM S JOIN PS", "(S ⋈ PS)"},
		{"SELECT * FROM P1, (SELECT pid AS pid2, weight AS w2 FROM P2)",
			"(P1 × δ[w2←weight](δ[pid2←pid](P2)))"},
		{"SELECT * FROM S WHERE sid <= 2 AND shop = 'M&S'", "σ[sid<=2∧shop='M&S'](S)"},
		{"SELECT * FROM S WHERE 2 >= sid", "σ[sid<=2](S)"},
		{"SELECT shop, COUNT(*) AS n FROM S GROUP BY shop", "$[shop;n←COUNT()](S)"},
		{"SELECT COUNT(sid) AS n FROM S", "$[;n←COUNT()](S)"},
		{"SELECT MIN(price) AS m FROM PS", "$[;m←MIN(price)](PS)"},
		{"SELECT SUM(price) FROM PS", "$[;sum_price←SUM(price)](PS)"},
		{"SELECT AVG(price) AS a FROM PS GROUP BY sid",
			""}, // checked separately below: needs sid selected
		{"SELECT sid, AVG(price) AS a FROM PS GROUP BY sid",
			"$[sid;a_sum←SUM(price),a_count←COUNT()](PS)"},
		{"SELECT shop AS store, MAX(price) AS P FROM (SELECT * FROM S JOIN PS) GROUP BY shop",
			"δ[store←shop]($[shop;P←MAX(price)]((S ⋈ PS)))"},
		{"SELECT sid FROM PS GROUP BY sid, pid", "π[sid]($[sid,pid;](PS))"},
		{"SELECT * FROM S UNION SELECT * FROM S", "(S ∪ S)"},
	}
	for _, c := range cases {
		if c.want == "" {
			continue
		}
		plan := mustBind(t, db, c.src)
		if plan.String() != c.want {
			t.Errorf("Bind(%q)\n got %s\nwant %s", c.src, plan, c.want)
		}
		if _, _, err := engine.StreamEvalPlan(context.Background(), db, plan); err != nil {
			t.Errorf("Bind(%q): plan does not evaluate: %v", c.src, err)
		}
	}
}

// bindErr asserts the query is rejected with a *pvql.Error whose span
// covers the given source fragment and whose message contains frag.
func bindErr(t *testing.T, db *pvc.Database, src, at, frag string) {
	t.Helper()
	q, err := pvql.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	_, err = Bind(db, q)
	if err == nil {
		t.Errorf("Bind(%q) succeeded, want error containing %q", src, frag)
		return
	}
	pe, ok := err.(*pvql.Error)
	if !ok {
		t.Errorf("Bind(%q) returned %T, want *pvql.Error", src, err)
		return
	}
	if !strings.Contains(pe.Msg, frag) {
		t.Errorf("Bind(%q) = %q, want fragment %q", src, pe.Msg, frag)
	}
	if at != "" {
		want := strings.Index(src, at)
		if pe.Pos != want {
			t.Errorf("Bind(%q): error span starts at %d, want %d (at %q); msg: %s", src, pe.Pos, want, at, pe.Msg)
		}
	}
}

func TestBindUnknownTable(t *testing.T) {
	db := shopDB(t)
	bindErr(t, db, "SELECT * FROM nope", "nope", `unknown table "nope"`)
	bindErr(t, db, "SELECT * FROM S JOIN nopetoo", "nopetoo", `unknown table "nopetoo"`)
}

func TestBindUnknownColumn(t *testing.T) {
	db := shopDB(t)
	bindErr(t, db, "SELECT prce FROM PS", "prce", `unknown column "prce"`)
	bindErr(t, db, "SELECT * FROM PS WHERE prise <= 50", "prise", `unknown column "prise"`)
	bindErr(t, db, "SELECT sid, COUNT(*) AS n FROM PS GROUP BY nosuch", "nosuch", `unknown column "nosuch"`)
	bindErr(t, db, "SELECT * FROM PS WHERE PS.prise <= 50", "PS.prise", `unknown column "prise"`)
	bindErr(t, db, "SELECT * FROM PS WHERE Q.price <= 50", "Q.price", `unknown table or alias "Q"`)
	bindErr(t, db, "SELECT MAX(nono) AS m FROM PS", "nono", `unknown column "nono"`)
}

func TestBindAmbiguousColumnAfterJoin(t *testing.T) {
	db := shopDB(t)
	// Combining P1 and P2 with "," (cross product) leaves two columns
	// named pid/weight in scope — every later reference would be
	// ambiguous, so the product itself is rejected at the source span.
	bindErr(t, db, "SELECT * FROM P1, P2 WHERE weight <= 5", "P2", `ambiguous column "pid"`)
	// A JOIN that shares nothing is flagged rather than silently turning
	// into a product.
	bindErr(t, db, "SELECT * FROM S JOIN (SELECT pid AS p2, weight FROM P1 WHERE pid = 1)",
		"(SELECT pid AS p2", "shares no columns")
	// Duplicate aliases make qualified references ambiguous.
	bindErr(t, db, "SELECT * FROM P1 AS p, (SELECT pid AS q, weight AS w FROM P2) AS p", "(SELECT pid AS q", "duplicate table name or alias")
}

func TestBindConstantVsAggregationComparisons(t *testing.T) {
	db := shopDB(t)
	sub := "(SELECT shop, MAX(price) AS P FROM (SELECT shop, price FROM S JOIN PS) GROUP BY shop)"
	// A string constant column never compares with an aggregation column,
	// under any θ.
	for _, th := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		src := fmt.Sprintf("SELECT shop FROM %s WHERE shop %s P", sub, th)
		bindErr(t, db, src, "shop "+th, "cannot compare string")
		// Flipped operand order fails identically.
		src = fmt.Sprintf("SELECT shop FROM %s WHERE P %s shop", sub, th)
		bindErr(t, db, src, "P "+th, "never strings")
		// String literals too.
		src = fmt.Sprintf("SELECT shop FROM %s WHERE P %s 'fifty'", sub, th)
		bindErr(t, db, src, "P "+th, "never strings")
	}
	// Numeric constant columns DO compare with aggregation columns — the
	// paper's σ over semimodule values — under every θ.
	for _, th := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		src := fmt.Sprintf("SELECT shop FROM (SELECT shop, sid, MAX(price) AS P FROM (SELECT * FROM S JOIN PS) GROUP BY shop, sid) WHERE sid %s P", th)
		plan := mustBind(t, db, src)
		if _, _, err := engine.StreamEvalPlan(context.Background(), db, plan); err != nil {
			t.Errorf("σ[sid %s P]: plan does not evaluate: %v", th, err)
		}
	}
}

func TestBindMiscErrors(t *testing.T) {
	db := shopDB(t)
	bindErr(t, db, "SELECT * FROM S WHERE 1 = 2", "1 = 2", "two constants")
	bindErr(t, db, "SELECT * FROM S WHERE shop <= 5", "shop <= 5", "cannot compare string")
	bindErr(t, db, "SELECT shop, MAX(price) AS P FROM (SELECT * FROM S JOIN PS) GROUP BY shop UNION SELECT shop, MAX(price) AS P FROM (SELECT * FROM S JOIN PS) GROUP BY shop",
		"", "UNION over aggregation column")
	bindErr(t, db, "SELECT * FROM S UNION SELECT * FROM P1", "", "incompatible schemas")
	bindErr(t, db, "SELECT MAX(shop) AS m FROM S", "shop) AS m", "string column")
	bindErr(t, db, "SELECT SUM(*) AS s FROM PS", "SUM(*)", "not defined")
	bindErr(t, db, "SELECT P FROM (SELECT shop, MAX(price) AS P FROM (SELECT shop, price FROM S JOIN PS) GROUP BY shop)",
		"P FROM", "Definition 5 constraint 1")
	bindErr(t, db, "SELECT MAX(P) AS m FROM (SELECT shop, MAX(price) AS P FROM (SELECT shop, price FROM S JOIN PS) GROUP BY shop)",
		"P) AS m", "nested aggregates")
	bindErr(t, db, "SELECT sid, MAX(price) AS m FROM PS GROUP BY pid", "sid", "neither grouped nor aggregated")
	bindErr(t, db, "SELECT pid, sid, MAX(price) AS m FROM PS GROUP BY sid, pid", "pid", "GROUP BY order")
	bindErr(t, db, "SELECT MAX(price) AS m FROM PS GROUP BY sid", "", "every GROUP BY column must be selected")
	bindErr(t, db, "SELECT sid AS pid, pid FROM PS", "pid", "collides")
	bindErr(t, db, "SELECT sid, sid FROM PS", "", `duplicate output column "sid"`)
	bindErr(t, db, "SELECT sid, MAX(price) AS sid FROM PS GROUP BY sid", "", `duplicate output column "sid"`)
	bindErr(t, db, "SELECT * FROM PS GROUP BY sid", "*", "SELECT *")
}

func TestBindGroupByModuleColumn(t *testing.T) {
	db := shopDB(t)
	bindErr(t, db,
		"SELECT P, COUNT(*) AS n FROM (SELECT shop, MAX(price) AS P FROM (SELECT shop, price FROM S JOIN PS) GROUP BY shop) GROUP BY P",
		"", "cannot GROUP BY aggregation column")
}
