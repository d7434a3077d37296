package pvql

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParse asserts the parser's crash-freedom contract: on ANY input,
// Parse either returns a Query or a positioned *Error whose span lies
// inside the input — it never panics. Wired into CI as the fuzz-smoke
// job; grow the corpus with `go test -fuzz FuzzParse ./internal/pvql`.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"SELECT * FROM R",
		"SELECT shop, price FROM S JOIN PS JOIN (SELECT * FROM P1 UNION SELECT * FROM P2)",
		"SELECT shop FROM (SELECT shop, MAX(price) AS P FROM q GROUP BY shop) WHERE P <= 50",
		"SELECT l_returnflag, l_linestatus, COUNT(*) AS count_order FROM lineitem WHERE l_shipdate <= 1200 GROUP BY l_returnflag, l_linestatus",
		"SELECT a FROM R, (SELECT a AS a2, c FROM S) WHERE a = a2 AND c >= -INF",
		"SELECT AVG(b) AS m FROM R WHERE name != 'it''s'",
		"SELECT a FROM R WHERE 1 = 2",
		"select A.b from (select * from x) as A group by A.b",
		"SELECT ( FROM 'unterminated",
		"EXPLAIN ANALYZE SELECT shop, COUNT(*) AS n FROM S GROUP BY shop",
		"SELECT a FROM R WHERE name = 'M''S' UNION SELECT b AS a FROM T",
		"SELECT MIN(x) AS lo, PROD(y) AS p FROM R WHERE x <> +INF GROUP BY",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			checkError(t, src, err)
		} else if q == nil || len(q.Selects) == 0 {
			t.Fatalf("Parse(%q) returned no error and no query", src)
		}
	})
}

func checkError(t *testing.T, src string, err error) {
	t.Helper()
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("Parse(%q) returned a %T (%v), want *Error", src, err, err)
	}
	if pe.Pos < 0 || pe.Pos > len(src) || pe.End < pe.Pos {
		t.Fatalf("Parse(%q): error span [%d, %d) outside input of length %d", src, pe.Pos, pe.End, len(src))
	}
	if utf8.ValidString(src) && strings.TrimSpace(pe.Msg) == "" {
		t.Fatalf("Parse(%q): empty error message", src)
	}
}
