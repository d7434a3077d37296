package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pvcagg/internal/gen"
)

// FuzzQueryBody posts arbitrary bytes to /query. Every response must be
// JSON with an expected status and never a contained panic, and /stats
// must count a 200 as exactly one ok and anything else as none. Grow the
// corpus with `go test -fuzz FuzzQueryBody ./internal/server`.
func FuzzQueryBody(f *testing.F) {
	queries := []string{
		// The pvql FuzzParse corpus.
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
		// Queries over gen.Figure1, and the wide EXPLAIN.
		qCount,
		qHard,
		wideExplain(),
	}
	seed := int64(1)
	for _, q := range queries {
		for _, req := range []QueryRequest{
			{Query: q},
			{Query: q, Mode: "exact"},
			{Query: q, Mode: "anytime", Eps: 0.1},
			{Query: q, Mode: "sample", Seed: &seed, Samples: 64},
		} {
			body, err := json.Marshal(req)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	for _, raw := range []string{"", "{", "[]", "null", `{"query":1}`, `{"query":"SELECT * FROM S","eps":-1}`, `{"query":"SELECT * FROM S","mode":"sample"}`} {
		f.Add([]byte(raw))
	}

	h := New(gen.Figure1(0.5), Config{MaxTimeout: 100 * time.Millisecond}).Handler()
	okCount := func(t *testing.T) int64 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st Stats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("/stats: %v", err)
		}
		return st.OK
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := okCount(t)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		out := rec.Body.Bytes()
		if !json.Valid(out) {
			t.Fatalf("status %d, body is not JSON: %q", rec.Code, out)
		}
		var e errorResponse
		_ = json.Unmarshal(out, &e)
		if e.Code == "panic" {
			t.Fatalf("contained panic: %s", e.Error)
		}
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests,
			http.StatusInternalServerError, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d: %s", rec.Code, out)
		}
		want := int64(0)
		if rec.Code == http.StatusOK {
			want = 1
		}
		if got := okCount(t) - before; got != want {
			t.Fatalf("status %d moved /stats ok by %d, want %d", rec.Code, got, want)
		}
	})
}
