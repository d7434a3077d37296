package pvql

import (
	"strings"
	"testing"

	"pvcagg/internal/value"
)

func TestParseBasics(t *testing.T) {
	q, err := Parse("SELECT shop, price FROM S JOIN PS WHERE price <= 50 GROUP BY shop")
	if err != nil {
		t.Fatal(err)
	}
	s := q.Selects[0]
	if len(s.Items) != 2 || s.Items[0].Col.Name != "shop" || s.Items[1].Col.Name != "price" {
		t.Fatalf("items = %+v", s.Items)
	}
	if len(s.From) != 2 || s.From[1].Combine != CombineJoin {
		t.Fatalf("from = %+v", s.From)
	}
	if len(s.Where) != 1 || s.Where[0].Th != value.LE || s.Where[0].R.Num == nil {
		t.Fatalf("where = %+v", s.Where)
	}
	if len(s.GroupBy) != 1 || s.GroupBy[0].Name != "shop" {
		t.Fatalf("group by = %+v", s.GroupBy)
	}
}

func TestParseShapes(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM R",
		"select a from r",
		"SELECT a AS b FROM R",
		"SELECT COUNT(*) AS n FROM R",
		"SELECT a, SUM(b) AS total FROM R GROUP BY a",
		"SELECT AVG(b) AS m FROM R",
		"SELECT a FROM R, (SELECT a AS a2, c FROM S) WHERE a = a2",
		"SELECT * FROM R UNION SELECT * FROM T",
		"SELECT * FROM (SELECT * FROM R UNION SELECT * FROM T) AS u",
		"SELECT R.a, b FROM R JOIN S WHERE R.a != 3 AND b < c",
		"SELECT a FROM R WHERE name = 'M''S' AND b >= -INF",
		"SELECT a FROM R WHERE b <> 4 AND b == 4",
		"SELECT prod(b) AS p FROM R",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseExplainPrefix(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want ExplainMode
	}{
		{"SELECT * FROM R", ExplainNone},
		{"EXPLAIN SELECT * FROM R", ExplainPlan},
		{"explain select * from r", ExplainPlan},
		{"EXPLAIN ANALYZE SELECT * FROM R", ExplainAnalyze},
		{"Explain Analyze SELECT a FROM R UNION SELECT a FROM T", ExplainAnalyze},
		// EXPLAIN / ANALYZE stay usable as identifiers in the query body.
		{"SELECT explain FROM analyze", ExplainNone},
		{"EXPLAIN SELECT analyze FROM explain", ExplainPlan},
	} {
		q, err := Parse(tc.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		if q.Explain != tc.want {
			t.Errorf("Parse(%q).Explain = %d, want %d", tc.src, q.Explain, tc.want)
		}
	}
	// A bare prefix is still an error (the query proper is missing).
	if _, err := Parse("EXPLAIN ANALYZE"); err == nil {
		t.Error("Parse(\"EXPLAIN ANALYZE\") succeeded, want error")
	}
}

func TestParseErrorsArePositioned(t *testing.T) {
	cases := []struct {
		src  string
		frag string // expected message fragment
		at   string // source text the span should start at
	}{
		{"", "expected SELECT", ""},
		{"SELECT", "expected a column", ""},
		{"SELECT a", "expected FROM", ""},
		{"SELECT a FROM", "expected a table name or a sub-query", ""},
		{"SELECT a FROM R WHERE", "expected a column, number or string", ""},
		{"SELECT a FROM R WHERE b", "expected a comparison operator", ""},
		{"SELECT a FROM R WHERE b <= ", "expected a column, number or string", ""},
		{"SELECT a FROM R GROUP", "expected BY", ""},
		{"SELECT a FROM R GROUP BY", "expected a column name", ""},
		{"SELECT a FROM R extra", "unexpected trailing input", "extra"},
		{"SELECT a FROM (SELECT a FROM R", "expected ')'", ""},
		{"SELECT a FROM R WHERE s = 'oops", "unterminated string", "'oops"},
		{"SELECT a; FROM R", "unexpected character", ";"},
		{"SELECT a FROM R AS", "expected an alias", ""},
		{"SELECT COUNT(b FROM R", "expected ')'", "FROM"},
		{"SELECT a FROM R WHERE b <= +x", "stray", "+x"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error %q", c.src, c.frag)
			continue
		}
		pe, ok := err.(*Error)
		if !ok {
			t.Errorf("Parse(%q) returned %T, want *Error", c.src, err)
			continue
		}
		if !strings.Contains(pe.Msg, c.frag) {
			t.Errorf("Parse(%q) = %q, want fragment %q", c.src, pe.Msg, c.frag)
		}
		if pe.Pos < 0 || pe.Pos > len(c.src) || pe.End < pe.Pos {
			t.Errorf("Parse(%q): bad span [%d, %d)", c.src, pe.Pos, pe.End)
		}
		if c.at != "" {
			want := strings.Index(c.src, c.at)
			if pe.Pos != want {
				t.Errorf("Parse(%q): error at offset %d, want %d (%q)", c.src, pe.Pos, want, c.at)
			}
		}
	}
}

func TestErrorRender(t *testing.T) {
	src := "SELECT shop\nFROM S\nWHERE x ="
	_, err := Parse(src)
	if err == nil {
		t.Fatal("want error")
	}
	r := err.(*Error).Render(src)
	if !strings.Contains(r, "3:") || !strings.Contains(r, "^") || !strings.Contains(r, "WHERE x =") {
		t.Fatalf("Render = %q", r)
	}
}
