package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pvcagg"
)

// Observability suite: the /metrics exposition under a workload soak,
// the /healthz build-info body, EXPLAIN routing through /query and the
// plan cache, trace-on-request, and the latency-recorder arithmetic.

// TestPercentileNearestRank pins the nearest-rank convention: index
// ceil(len*p/100), 1-based, clamped to the first sample — the p-th
// percentile is always an observed sample, never an interpolation.
func TestPercentileNearestRank(t *testing.T) {
	ramp := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i+1) * time.Microsecond
		}
		return s
	}
	cases := []struct {
		name   string
		sorted []time.Duration
		p      int
		want   time.Duration
	}{
		{"empty/p50", nil, 50, 0},
		{"one/p50", ramp(1), 50, 1 * time.Microsecond},
		{"one/p95", ramp(1), 95, 1 * time.Microsecond},
		{"one/p99", ramp(1), 99, 1 * time.Microsecond},
		{"two/p50", ramp(2), 50, 1 * time.Microsecond},
		{"two/p95", ramp(2), 95, 2 * time.Microsecond},
		{"two/p99", ramp(2), 99, 2 * time.Microsecond},
		{"window/p50", ramp(windowSize), 50, time.Duration(windowSize/2) * time.Microsecond},
		{"window/p95", ramp(windowSize), 95, time.Duration((windowSize*95+99)/100) * time.Microsecond},
		{"window/p99", ramp(windowSize), 99, time.Duration((windowSize*99+99)/100) * time.Microsecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := percentile(tc.sorted, tc.p); got != tc.want {
				t.Errorf("percentile(%d samples, p%d) = %v, want %v", len(tc.sorted), tc.p, got, tc.want)
			}
		})
	}
}

// TestRecorderSnapshot covers the pooled snapshot path: lifetime count
// and total survive window wrap, percentiles read the window, and
// repeated snapshots (pool reuse) agree.
func TestRecorderSnapshot(t *testing.T) {
	r := newRecorder()
	if st := r.snapshot(); st.Count != 0 || st.TotalUs != 0 || st.P50Us != 0 {
		t.Fatalf("empty snapshot = %+v, want zeros", st)
	}
	n := windowSize + 100
	for i := 1; i <= n; i++ {
		r.add(time.Duration(i) * time.Microsecond)
	}
	st := r.snapshot()
	if st.Count != int64(n) {
		t.Errorf("Count = %d, want %d (lifetime, not window)", st.Count, n)
	}
	if want := int64(n) * int64(n+1) / 2; st.TotalUs != want {
		t.Errorf("TotalUs = %d, want %d", st.TotalUs, want)
	}
	// The window now holds 101..windowSize+100; p50 over it is the
	// nearest-rank sample windowSize/2 positions in.
	if want := int64(100 + windowSize/2); st.P50Us != want {
		t.Errorf("P50Us = %d, want %d", st.P50Us, want)
	}
	if st2 := r.snapshot(); st2 != st {
		t.Errorf("repeated snapshot differs: %+v vs %+v", st2, st)
	}
}

func TestHealthzBuildInfo(t *testing.T) {
	s := New(shopDB(0.5), Config{})
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
// twice, and asserts the exposition parses, the core series exist, and
// counters are monotone between scrapes.
func TestMetricsSmoke(t *testing.T) {
	db := shopDB(0.5)
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
}

// TestQueryExplain routes the PVQL EXPLAIN prefixes through /query: the
// plain prefix returns the estimated tree with no execution, ANALYZE
// executes and reports actuals, and both coexist with the plan cache.
func TestQueryExplain(t *testing.T) {
	s := New(shopDB(0.5), Config{})
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

// TestQueryTrace: "trace": true returns the span tree; off by default.
func TestQueryTrace(t *testing.T) {
	s := New(shopDB(0.5), Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	_, plain, _ := post(t, srv.Client(), srv.URL, QueryRequest{Query: qCount})
	if plain.Trace != nil {
		t.Error("trace present without being requested")
	}
	_, traced, _ := post(t, srv.Client(), srv.URL, QueryRequest{Query: qCount, Trace: true})
	if len(traced.Trace) == 0 {
		t.Fatal("trace requested but absent")
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
