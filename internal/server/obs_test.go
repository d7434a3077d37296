package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pvcagg"
	"pvcagg/internal/gen"
)

// Observability suite: the /metrics exposition under a workload soak,
// /stats as a reading of it, the /healthz build-info body, EXPLAIN
// routing through /query and the plan cache, and trace-on-request.

func TestHealthzBuildInfo(t *testing.T) {
	s := New(gen.Figure1(0.5), Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %d", resp.StatusCode)
	}
	var bi buildInfo
	if err := json.NewDecoder(resp.Body).Decode(&bi); err != nil {
		t.Fatal(err)
	}
	if bi.Status != "ok" {
		t.Errorf("status = %q, want ok", bi.Status)
	}
	if bi.Module == "" || bi.Version == "" {
		t.Errorf("missing build identity: %+v", bi)
	}
	if bi.GoVersion != runtime.Version() {
		t.Errorf("go_version = %q, want %q", bi.GoVersion, runtime.Version())
	}
	if bi.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("gomaxprocs = %d, want %d", bi.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
}

// scrape fetches /metrics and parses the exposition: every line must be
// a comment or `series value`, TYPE must precede any sample of its base
// name and appear exactly once per base. Returns series → value.
func scrape(t *testing.T, client *http.Client, url string) map[string]float64 {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	series := map[string]float64{}
	typed := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("malformed comment line %q", line)
			}
			if parts[1] == "TYPE" {
				if typed[parts[2]] {
					t.Errorf("duplicate TYPE header for %s", parts[2])
				}
				typed[parts[2]] = true
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, val := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value %q: %v", name, val, err)
		}
		base := name
		if j := strings.IndexByte(base, '{'); j >= 0 {
			base = base[:j]
		}
		base = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base, "_bucket"), "_sum"), "_count")
		if !typed[base] && !typed[strings.TrimSuffix(base, "_bucket")] {
			t.Errorf("sample %q precedes (or lacks) its TYPE header", name)
		}
		if _, dup := series[name]; dup {
			t.Errorf("duplicate series %q", name)
		}
		series[name] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return series
}

// TestMetricsSmoke soaks the server with a small workload, scrapes
// twice, and asserts the exposition parses, the core series exist,
// counters are monotone between scrapes, and /stats reads the same
// counters and phase counts as the scrape.
func TestMetricsSmoke(t *testing.T) {
	db := gen.Figure1(0.5)
	s := New(db, Config{StoreMetrics: func() pvcagg.StoreMetrics {
		return pvcagg.StoreMetrics{BlocksRead: 7, BytesRead: 128, RowsRead: 42}
	}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := qCount
				if (w+i)%2 == 1 {
					q = qHard
				}
				post(t, srv.Client(), srv.URL, QueryRequest{Query: q})
			}
		}(w)
	}
	wg.Wait()
	// One parse error, so the error counter is live too.
	if code, _, _ := post(t, srv.Client(), srv.URL, QueryRequest{Query: "SELECT FROM"}); code != http.StatusBadRequest {
		t.Fatalf("bad query: %d, want 400", code)
	}

	first := scrape(t, srv.Client(), srv.URL)
	core := []string{
		"pvcd_requests_total",
		"pvcd_requests_ok_total",
		"pvcd_requests_error_total",
		"pvcd_rows_returned_total",
		"pvcd_inflight_queries",
		`pvcd_plan_cache_events_total{event="hit"}`,
		"pvcd_store_blocks_read_total",
		"pvcd_request_seconds_count",
		"pvcd_request_seconds_sum",
		`pvcd_request_seconds_bucket{le="+Inf"}`,
		"pvcd_exec_seconds_count",
		"pvcd_queue_wait_seconds_count",
		"pvcd_parse_seconds_count",
	}
	for _, name := range core {
		if _, ok := first[name]; !ok {
			t.Errorf("core series %q missing from exposition", name)
		}
	}
	for name := range first {
		if strings.HasPrefix(name, "pvcd_shared_") {
			t.Errorf("series %q of the deleted cross-query cache is still exported", name)
		}
	}
	if got := first["pvcd_requests_total"]; got != 33 {
		t.Errorf("pvcd_requests_total = %v, want 33", got)
	}
	if got := first["pvcd_requests_ok_total"]; got != 32 {
		t.Errorf("pvcd_requests_ok_total = %v, want 32", got)
	}
	if got := first["pvcd_requests_error_total"]; got < 1 {
		t.Errorf("pvcd_requests_error_total = %v, want ≥ 1", got)
	}
	if got := first["pvcd_store_blocks_read_total"]; got != 7 {
		t.Errorf("pvcd_store_blocks_read_total = %v, want 7 (Config hook)", got)
	}
	if got, want := first["pvcd_request_seconds_count"], first[`pvcd_request_seconds_bucket{le="+Inf"}`]; got != want {
		t.Errorf("histogram count %v != +Inf bucket %v", got, want)
	}

	// More load, then a second scrape: every counter must be monotone.
	for i := 0; i < 8; i++ {
		post(t, srv.Client(), srv.URL, QueryRequest{Query: qCount})
	}
	second := scrape(t, srv.Client(), srv.URL)
	for name, v1 := range first {
		if strings.Contains(name, "_total") || strings.Contains(name, "_count") || strings.Contains(name, "_bucket") || strings.Contains(name, "_sum") {
			if v2 := second[name]; v2 < v1 {
				t.Errorf("counter %q went backwards: %v → %v", name, v1, v2)
			}
		}
	}
	if second["pvcd_requests_total"] != first["pvcd_requests_total"]+8 {
		t.Errorf("pvcd_requests_total %v → %v, want +8", first["pvcd_requests_total"], second["pvcd_requests_total"])
	}

	// The server is idle, so /stats and a scrape read the same values.
	var st Stats
	getJSON(t, srv.URL+"/stats", &st)
	third := scrape(t, srv.Client(), srv.URL)
	for series, got := range map[string]int64{
		"pvcd_requests_total":           st.Requests,
		"pvcd_requests_ok_total":        st.OK,
		"pvcd_requests_rejected_total":  st.Rejected,
		"pvcd_requests_degraded_total":  st.Degraded,
		"pvcd_requests_timeout_total":   st.Timeouts,
		"pvcd_requests_error_total":     st.Errors,
		"pvcd_panics_total":             st.Panics,
		"pvcd_queue_wait_seconds_count": st.QueueWait.Count,
		"pvcd_parse_seconds_count":      st.Parse.Count,
		"pvcd_exec_seconds_count":       st.Exec.Count,
		"pvcd_request_seconds_count":    st.Total.Count,
	} {
		if want, ok := third[series]; !ok || float64(got) != want {
			t.Errorf("/stats reads %d where %s is %v", got, series, want)
		}
	}
	if st.Requests != 41 || st.OK != 40 {
		t.Errorf("/stats requests=%d ok=%d, want 41 and 40", st.Requests, st.OK)
	}
	resp, err := srv.Client().Post(srv.URL+"/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats: %d, want 405", resp.StatusCode)
	}
}

// TestQueryExplain routes the PVQL EXPLAIN prefixes through /query: the
// plain prefix returns the tree with row bounds and no execution, ANALYZE
// executes and reports actuals, and both coexist with the plan cache.
func TestQueryExplain(t *testing.T) {
	s := New(gen.Figure1(0.5), Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, plain, errMsg := post(t, srv.Client(), srv.URL, QueryRequest{Query: "EXPLAIN " + qCount})
	if code != http.StatusOK {
		t.Fatalf("EXPLAIN: %d %s", code, errMsg)
	}
	if len(plain.Rows) != 0 {
		t.Errorf("EXPLAIN returned %d rows, want none", len(plain.Rows))
	}
	if plain.Strategy != "explain" {
		t.Errorf("EXPLAIN strategy = %q", plain.Strategy)
	}
	if plain.Explain == nil {
		t.Fatal("EXPLAIN response lacks the plan tree")
	}
	if plain.Explain.ActualRows != -1 {
		t.Errorf("EXPLAIN root ActualRows = %d, want -1 (not executed)", plain.Explain.ActualRows)
	}

	_, ref, _ := post(t, srv.Client(), srv.URL, QueryRequest{Query: qCount, Mode: "exact"})
	code, analyzed, errMsg := post(t, srv.Client(), srv.URL, QueryRequest{Query: "EXPLAIN ANALYZE " + qCount, Mode: "exact"})
	if code != http.StatusOK {
		t.Fatalf("EXPLAIN ANALYZE: %d %s", code, errMsg)
	}
	if analyzed.Explain == nil {
		t.Fatal("EXPLAIN ANALYZE response lacks the plan tree")
	}
	if len(analyzed.Rows) != len(ref.Rows) {
		t.Errorf("EXPLAIN ANALYZE returned %d rows, plain query %d", len(analyzed.Rows), len(ref.Rows))
	}
	if got, want := analyzed.Explain.ActualRows, int64(len(ref.Rows)); got != want {
		t.Errorf("root ActualRows = %d, want %d", got, want)
	}

	// Replays hit the plan cache under the full prefixed text.
	_, again, _ := post(t, srv.Client(), srv.URL, QueryRequest{Query: "EXPLAIN " + qCount})
	if !again.CachedPlan {
		t.Error("repeated EXPLAIN missed the plan cache")
	}
	if again.Explain == nil || len(again.Rows) != 0 {
		t.Error("cached EXPLAIN lost its explain-only semantics")
	}
}

// TestQueryTrace: "trace": true returns the span tree and the query's
// counters; both are off by default.
func TestQueryTrace(t *testing.T) {
	s := New(gen.Figure1(0.5), Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	_, plain, _ := post(t, srv.Client(), srv.URL, QueryRequest{Query: qCount})
	if plain.Trace != nil || plain.Counters != nil {
		t.Error("trace or counters present without being requested")
	}
	_, traced, _ := post(t, srv.Client(), srv.URL, QueryRequest{Query: qCount, Trace: true})
	if len(traced.Trace) == 0 {
		t.Fatal("trace requested but absent")
	}
	if c := traced.Counters; c == nil || c.Rows != len(traced.Rows) || c.Tuples != len(traced.Rows) || c.Exact.Compile.Nodes == 0 {
		t.Errorf("counters %+v, want one row and tuple per answer row (%d) and some d-tree nodes", c, len(traced.Rows))
	}
	var exec *pvcagg.SpanView
	for i := range traced.Trace {
		if traced.Trace[i].Name == "exec" {
			exec = &traced.Trace[i]
		}
	}
	if exec == nil {
		t.Fatalf("trace lacks the exec span: %+v", traced.Trace)
	}
	kids := map[string]bool{}
	for _, c := range exec.Children {
		kids[c.Name] = true
	}
	if !kids["eval"] || !kids["probability"] {
		t.Errorf("exec span children = %+v, want eval and probability", exec.Children)
	}
}

// wideExplain is EXPLAIN over a 110-way cross product of a 1 000-row
// table: its row bound, 1000¹¹⁰, is past the largest int64.
func wideExplain() string {
	from := make([]string, 110)
	for i := range from {
		from[i] = fmt.Sprintf("(SELECT a AS a%d FROM R)", i)
	}
	return "EXPLAIN SELECT * FROM " + strings.Join(from, ", ")
}

// TestExplainWideProduct: the row bound of a cross product too wide for
// an int64 saturates, so EXPLAIN answers 200 with rows_bound at the
// largest int64, and /stats counts the request once, as ok.
func TestExplainWideProduct(t *testing.T) {
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	r := pvcagg.NewRelation("R", pvcagg.Schema{{Name: "a", Type: pvcagg.TValue}})
	for i := 0; i < 1000; i++ {
		r.MustInsert(pvcagg.MustParseExpr("1"), pvcagg.IntCell(int64(i)))
	}
	db.Add(r)
	srv := httptest.NewServer(New(db, Config{}).Handler())
	defer srv.Close()

	code, resp, msg := post(t, srv.Client(), srv.URL, QueryRequest{Query: wideExplain()})
	if code != http.StatusOK {
		t.Fatalf("EXPLAIN: %d %s", code, msg)
	}
	if bound := resp.Explain.RowsBound; bound != math.MaxInt64 {
		t.Errorf("rows_bound = %d, want %d", bound, int64(math.MaxInt64))
	}
	var st Stats
	getJSON(t, srv.URL+"/stats", &st)
	if st.OK != 1 || st.Errors != 0 {
		t.Errorf("/stats ok=%d errors=%d, want 1 and 0", st.OK, st.Errors)
	}
}
