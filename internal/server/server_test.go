package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvcagg"
	"pvcagg/internal/gen"
	"pvcagg/internal/testutil"
	"pvcagg/internal/tpch"
)

// The server suite drives the service over real HTTP (httptest.Server,
// so request contexts carry genuine client-disconnect semantics) against
// the paper's Figure 1 shop database, and checks every response against
// the only three acceptable shapes: a correct result (differential vs
// direct ExecQuery), a sound interval, or a clean 429/timeout.

const (
	qCount = `SELECT shop, COUNT(*) AS n FROM S GROUP BY shop`
	qHard  = `SELECT shop FROM (
	  SELECT shop, MAX(price) AS P FROM (
	    SELECT shop, price FROM S JOIN PS JOIN (SELECT * FROM P1 UNION SELECT * FROM P2)
	  ) GROUP BY shop
	) WHERE P <= 50`
)

// exactReference computes the ground truth for a query directly through
// the library, keyed by the same cell rendering the server uses.
func exactReference(t testing.TB, db *pvcagg.Database, query string) map[string]float64 {
	t.Helper()
	res, err := pvcagg.ExecQuery(context.Background(), db, query, pvcagg.WithMode(pvcagg.Exact))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := res.Collect()
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[string]float64, len(outs))
	for _, o := range outs {
		key := ""
		for _, c := range o.Tuple.Cells {
			key += c.String() + "|"
		}
		ref[key] = o.Confidence.Lo
	}
	return ref
}

func rowKey(r QueryRow) string {
	key := ""
	for _, c := range r.Cells {
		key += c + "|"
	}
	return key
}

func post(t testing.TB, client *http.Client, url string, req QueryRequest) (int, *QueryResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, nil, e.Error
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, &qr, ""
}

func TestQueryExactDifferential(t *testing.T) {
	db := gen.Figure1(0.5)
	srv := httptest.NewServer(New(db, Config{}).Handler())
	defer srv.Close()
	ref := exactReference(t, db, qCount)

	status, qr, msg := post(t, srv.Client(), srv.URL, QueryRequest{Query: qCount, Mode: "exact"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, msg)
	}
	if len(qr.Rows) != len(ref) {
		t.Fatalf("%d rows, want %d", len(qr.Rows), len(ref))
	}
	for _, row := range qr.Rows {
		want, ok := ref[rowKey(row)]
		if !ok {
			t.Fatalf("unexpected row %v", row.Cells)
		}
		if row.Lo != want || row.Hi != want {
			t.Errorf("row %v: [%v,%v], want exactly %v", row.Cells, row.Lo, row.Hi, want)
		}
		if !row.Converged {
			t.Errorf("exact row %v not converged", row.Cells)
		}
		if len(row.AggExpects) != 1 {
			t.Errorf("row %v: %d aggregate expectations, want 1", row.Cells, len(row.AggExpects))
		}
	}
}

// TestQueryMinGroupByEncodes is the regression test for the empty 200
// body: MIN over probabilistic rows is +∞ in the world where no row of the
// group survives, so its expectation is infinite, which encoding/json
// refuses — and the encoder's error used to be discarded after the status
// line. The expectation now travels as null.
func TestQueryMinGroupByEncodes(t *testing.T) {
	srv := httptest.NewServer(New(gen.Figure1(0.5), Config{}).Handler())
	defer srv.Close()
	body, err := json.Marshal(QueryRequest{
		Query: `SELECT shop, MIN(price) AS lo, COUNT(*) AS n FROM S JOIN PS GROUP BY shop`,
		Mode:  "exact",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(raw) == 0 {
		t.Fatalf("status %d with a %d-byte body: %s", resp.StatusCode, len(raw), raw)
	}
	if !bytes.Contains(raw, []byte(`"agg_expects":[null,`)) {
		t.Errorf("infinite MIN expectation is not encoded as null: %s", raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("decode response: %v\n%s", err, raw)
	}
	if len(qr.Rows) != 2 {
		t.Fatalf("%d rows, want the 2 shops", len(qr.Rows))
	}
	for _, row := range qr.Rows {
		if len(row.AggExpects) != 2 || !math.IsNaN(row.AggExpects[0]) || !(row.AggExpects[1] > 0) {
			t.Errorf("row %v: agg_expects %v, want [NaN (null), a positive count]", row.Cells, row.AggExpects)
		}
	}
}

// TestWriteJSONUnencodable pins the second half of the fix: a value JSON
// cannot carry becomes a typed 500, never a success status over an empty
// body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, QueryResponse{Rows: []QueryRow{{Lo: math.Inf(1)}}})
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("body %q: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || e.Code != "encode" || e.Error == "" {
		t.Errorf("status %d, body %+v; want a 500 with code \"encode\"", rec.Code, e)
	}
}

func TestQueryAnytimeSound(t *testing.T) {
	db := gen.Figure1(0.5)
	srv := httptest.NewServer(New(db, Config{}).Handler())
	defer srv.Close()
	ref := exactReference(t, db, qHard)

	status, qr, msg := post(t, srv.Client(), srv.URL, QueryRequest{Query: qHard, Mode: "anytime", Eps: 0.05})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, msg)
	}
	for _, row := range qr.Rows {
		exact, ok := ref[rowKey(row)]
		if !ok {
			t.Fatalf("unexpected row %v", row.Cells)
		}
		if row.Lo > exact+1e-9 || row.Hi < exact-1e-9 {
			t.Errorf("row %v: bounds [%v,%v] exclude exact %v (unsound)", row.Cells, row.Lo, row.Hi, exact)
		}
		if row.Converged && row.Hi-row.Lo > 0.05+1e-12 {
			t.Errorf("row %v: converged but width %v > ε", row.Cells, row.Hi-row.Lo)
		}
	}
}

func TestQueryBadRequests(t *testing.T) {
	srv := httptest.NewServer(New(gen.Figure1(0.5), Config{}).Handler())
	defer srv.Close()
	cases := []struct {
		name string
		req  QueryRequest
		want int
	}{
		{"empty query", QueryRequest{}, http.StatusBadRequest},
		{"parse error", QueryRequest{Query: "SELECT FROM WHERE"}, http.StatusBadRequest},
		{"unknown table", QueryRequest{Query: "SELECT * FROM nope"}, http.StatusBadRequest},
		{"unknown mode", QueryRequest{Query: qCount, Mode: "psychic"}, http.StatusBadRequest},
		{"sample without seed", QueryRequest{Query: qCount, Mode: "sample"}, http.StatusBadRequest},
		{"eps with exact", QueryRequest{Query: qCount, Mode: "exact", Eps: 0.1}, http.StatusBadRequest},
		{"eps out of range", QueryRequest{Query: qCount, Eps: 1.5}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, _, msg := post(t, srv.Client(), srv.URL, tc.req)
		if status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, status, msg, tc.want)
		}
		if msg == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

func TestQuerySampleSeeded(t *testing.T) {
	db := gen.Figure1(0.5)
	srv := httptest.NewServer(New(db, Config{}).Handler())
	defer srv.Close()
	seed := int64(42)
	status, a, msg := post(t, srv.Client(), srv.URL, QueryRequest{Query: qCount, Mode: "sample", Seed: &seed, Samples: 2000})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, msg)
	}
	_, b, _ := post(t, srv.Client(), srv.URL, QueryRequest{Query: qCount, Mode: "sample", Seed: &seed, Samples: 2000})
	for i := range a.Rows {
		if a.Rows[i].Lo != b.Rows[i].Lo || a.Rows[i].Hi != b.Rows[i].Hi {
			t.Errorf("same seed, different estimates: %+v vs %+v", a.Rows[i], b.Rows[i])
		}
		if a.Rows[i].Lo < 0 || a.Rows[i].Hi > 1 || a.Rows[i].Lo > a.Rows[i].Hi {
			t.Errorf("malformed interval [%v,%v]", a.Rows[i].Lo, a.Rows[i].Hi)
		}
	}
}

// TestAdmissionControl pins the saturation ladder deterministically via
// the exec gate: with 1 worker and a queue of 1, the first request
// executes (held at the gate), the second queues, the third bounces with
// 429 + Retry-After immediately.
func TestAdmissionControl(t *testing.T) {
	s := New(gen.Figure1(0.5), Config{Workers: 1, QueueDepth: 1, MaxQueueWait: 5 * time.Second})
	gate := make(chan struct{})
	var gated atomic.Int32
	s.execGate = func() {
		gated.Add(1)
		<-gate
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer close(gate)

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, _, _ := post(t, srv.Client(), srv.URL, QueryRequest{Query: qCount})
			results <- status
		}()
		// Let request i reach its steady state (first: holding the gate;
		// second: queued) before issuing the next.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if i == 0 && gated.Load() == 1 {
				break
			}
			if i == 1 && s.waiting.Load() == 1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := s.waiting.Load(); got != 1 {
		t.Fatalf("queue depth %d before third request, want 1", got)
	}

	body, _ := json.Marshal(QueryRequest{Query: qCount})
	resp, err := srv.Client().Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	resp.Body.Close()

	gate <- struct{}{} // release the executing request
	gate <- struct{}{} // release the queued request
	for i := 0; i < 2; i++ {
		if status := <-results; status != http.StatusOK {
			t.Errorf("held request finished with %d, want 200", status)
		}
	}
	if s.m.rejected.Value() != 1 {
		t.Errorf("rejected counter %d, want 1", s.m.rejected.Value())
	}
}

// TestDegradation: a request that queues past DegradeAfter is demoted to
// anytime bounds (Degraded=true) that are still sound.
func TestDegradation(t *testing.T) {
	db := gen.Figure1(0.5)
	s := New(db, Config{Workers: 1, QueueDepth: 2, MaxQueueWait: 5 * time.Second, DegradeAfter: time.Nanosecond})
	gate := make(chan struct{})
	var first atomic.Bool
	s.execGate = func() {
		if first.CompareAndSwap(false, true) {
			<-gate
		}
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ref := exactReference(t, db, qHard)

	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		post(t, srv.Client(), srv.URL, QueryRequest{Query: qCount})
	}()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !first.Load() {
		time.Sleep(time.Millisecond)
	}

	done := make(chan *QueryResponse, 1)
	go func() {
		status, qr, msg := post(t, srv.Client(), srv.URL, QueryRequest{Query: qHard})
		if status != http.StatusOK {
			t.Errorf("degraded request: status %d: %s", status, msg)
		}
		done <- qr
	}()
	for time.Now().Before(deadline) && s.waiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	gate <- struct{}{}
	qr := <-done
	<-blocked
	if qr == nil {
		t.Fatal("no response")
	}
	if !qr.Degraded {
		t.Fatal("request that queued past DegradeAfter not marked degraded")
	}
	for _, row := range qr.Rows {
		exact := ref[rowKey(row)]
		if row.Lo > exact+1e-9 || row.Hi < exact-1e-9 {
			t.Errorf("degraded row %v: bounds [%v,%v] exclude exact %v", row.Cells, row.Lo, row.Hi, exact)
		}
	}
	if s.m.degraded.Value() == 0 {
		t.Error("degraded counter not incremented")
	}
}

func TestPlanCacheAndStats(t *testing.T) {
	s := New(gen.Figure1(0.5), Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	_, first, _ := post(t, srv.Client(), srv.URL, QueryRequest{Query: qCount})
	_, second, _ := post(t, srv.Client(), srv.URL, QueryRequest{Query: qCount})
	if first.CachedPlan {
		t.Error("first request reported a plan-cache hit")
	}
	if !second.CachedPlan {
		t.Error("second request missed the plan cache")
	}

	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The plan cache is the only cache a session has.
	if bytes.Contains(raw, []byte(`"shared_`)) {
		t.Errorf("/stats still reports a cross-query compilation cache: %s", raw)
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests < 2 || st.OK < 2 {
		t.Errorf("stats: requests=%d ok=%d, want ≥ 2", st.Requests, st.OK)
	}
	if st.PlanCache.Hits < 1 || st.PlanCache.Misses < 1 || st.PlanCache.Entries < 1 {
		t.Errorf("plan cache stats %+v, want ≥1 hit, miss and entry", st.PlanCache)
	}
	if st.Total.Count < 2 || st.Total.TotalUs <= 0 {
		t.Errorf("latency totals malformed: %+v", st.Total)
	}
}

// TestAnytimeAnswerRepeats: an answer is a function of the query and the
// database — not of what other requests the server has seen. The probe is
// an anytime query that is hard by construction — a self-join of partsupp
// ("suppliers of two of the first c parts"), never hierarchical — so its
// bounds stay open at ε = 0.1 and depend on exactly which leaf closures
// fit their node budgets (at c = 90, on 14 of 20 rows; an anytime run
// that resumes its closures closes c = 70 to points on every row); it is
// asked of a fresh server and again after 52 mixed requests, some over the
// same partsupps, have run concurrently. A node cache carried across
// requests makes the second answer tighter than the first; without one the
// two are bit-identical.
func TestAnytimeAnswerRepeats(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{SF: 0.002, Seed: 1, Probabilistic: true})
	if err != nil {
		t.Fatal(err)
	}
	// As many workers as clients: no request ever queues, so none can be
	// rejected or degraded however loaded the machine is.
	const clients, each = 4, 13 // 52 requests
	srv := httptest.NewServer(New(db, Config{Workers: clients}).Handler())
	defer srv.Close()

	const selfJoin = `SELECT ps_suppkey FROM (SELECT ps_partkey AS p1, ps_suppkey FROM partsupp WHERE ps_partkey <= %[1]d)` +
		` JOIN (SELECT ps_partkey AS p2, ps_suppkey FROM partsupp WHERE ps_partkey <= %[1]d) WHERE p1 < p2`
	probe := QueryRequest{Query: fmt.Sprintf(selfJoin, 90), Mode: "anytime", Eps: 0.1}
	ask := func() []QueryRow {
		t.Helper()
		status, qr, msg := post(t, srv.Client(), srv.URL, probe)
		if status != http.StatusOK {
			t.Fatalf("probe: status %d: %s", status, msg)
		}
		return qr.Rows
	}
	first := ask()
	open := 0
	for _, r := range first {
		if r.Hi > r.Lo {
			open++
		}
	}
	if open == 0 {
		t.Fatal("probe converged to points on every row; it cannot tell a cache from none")
	}

	seed := int64(7)
	others := []QueryRequest{
		{Query: probe.Query, Mode: "exact"},
		{Query: probe.Query, Mode: "anytime", Eps: 0.05},
		{Query: fmt.Sprintf(selfJoin, 50), Mode: "exact"},
		{Query: `SELECT l_returnflag, SUM(l_quantity) AS q FROM lineitem WHERE l_orderkey <= 8 GROUP BY l_returnflag`},
		{Query: `SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem WHERE l_orderkey <= 40 GROUP BY l_returnflag, l_linestatus`, Mode: "exact"},
		{Query: `SELECT l_linenumber, l_quantity FROM lineitem WHERE l_orderkey = 3`, Mode: "sample", Seed: &seed, Samples: 200},
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				req := others[(c+i)%len(others)]
				if status, _, msg := post(t, srv.Client(), srv.URL, req); status != http.StatusOK {
					t.Errorf("client %d: %q: status %d: %s", c, req.Query, status, msg)
				}
			}
		}(c)
	}
	wg.Wait()

	again := ask()
	if len(again) != len(first) {
		t.Fatalf("%d rows, then %d", len(first), len(again))
	}
	for i := range first {
		if again[i].Lo != first[i].Lo || again[i].Hi != first[i].Hi {
			t.Errorf("row %v: [%v, %v] on a fresh server, [%v, %v] after %d other requests",
				first[i].Cells, first[i].Lo, first[i].Hi, again[i].Lo, again[i].Hi, clients*each)
		}
	}
}

// TestServerConcurrency is the mixed-mode sweep of the acceptance
// criteria: 8 parallel clients × {exact, anytime, sample} × randomized
// deadlines against a deliberately small worker budget, so admission
// control, degradation and deadlines all engage. Every response must be
// a correct result, a sound bound, or a clean 429/timeout — and the
// server must not leak goroutines. Run under -race in the service CI
// job.
func TestServerConcurrency(t *testing.T) {
	db := gen.Figure1(0.5)
	s := New(db, Config{Workers: 2, QueueDepth: 2, MaxQueueWait: 200 * time.Millisecond, DegradeAfter: 10 * time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	refs := map[string]map[string]float64{
		qCount: exactReference(t, db, qCount),
		qHard:  exactReference(t, db, qHard),
	}
	checkLeaks := testutil.CheckGoroutines(t)

	const clients = 8
	const requests = 12
	var wg sync.WaitGroup
	var ok, rejected, timedOut atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for i := 0; i < requests; i++ {
				req := QueryRequest{Query: qCount}
				if rng.Intn(2) == 1 {
					req.Query = qHard
				}
				switch rng.Intn(3) {
				case 0:
					req.Mode = "exact"
				case 1:
					req.Mode = "anytime"
					req.Eps = 0.1
				case 2:
					req.Mode = "sample"
					seed := rng.Int63()
					req.Seed = &seed
					req.Samples = 500
				}
				// Randomized deadlines: some tight enough to trip mid-query.
				req.TimeoutMs = []int64{1, 50, 2000}[rng.Intn(3)]
				status, qr, msg := post(t, srv.Client(), srv.URL, req)
				switch status {
				case http.StatusOK:
					ok.Add(1)
					ref := refs[req.Query]
					for _, row := range qr.Rows {
						exact, known := ref[rowKey(row)]
						if !known {
							t.Errorf("client %d: unexpected row %v", c, row.Cells)
							continue
						}
						if row.Lo < -1e-9 || row.Hi > 1+1e-9 || row.Lo > row.Hi+1e-12 {
							t.Errorf("client %d: malformed interval [%v,%v]", c, row.Lo, row.Hi)
						}
						switch req.Mode {
						case "exact":
							if row.Lo != exact {
								t.Errorf("client %d %s: exact row %v = %v, want %v", c, req.Query[:20], row.Cells, row.Lo, exact)
							}
						case "anytime":
							if row.Lo > exact+1e-9 || row.Hi < exact-1e-9 {
								t.Errorf("client %d: unsound bounds [%v,%v] vs exact %v", c, row.Lo, row.Hi, exact)
							}
						}
						// Sample intervals are statistical (95%); shape checked above.
					}
					if qr.Degraded && req.Mode == "exact" {
						t.Errorf("client %d: exact request degraded", c)
					}
				case http.StatusTooManyRequests:
					rejected.Add(1)
				case http.StatusGatewayTimeout:
					timedOut.Add(1)
				default:
					t.Errorf("client %d: status %d: %s", c, status, msg)
				}
			}
		}(c)
	}
	wg.Wait()
	t.Logf("concurrency sweep: ok=%d rejected=%d timeout=%d degraded=%d",
		ok.Load(), rejected.Load(), timedOut.Load(), s.m.degraded.Value())
	if total := ok.Load() + rejected.Load() + timedOut.Load(); total != clients*requests {
		t.Errorf("%d classified responses, want %d", total, clients*requests)
	}
	if ok.Load() == 0 {
		t.Error("no request succeeded — the sweep never exercised the happy path")
	}

	srv.CloseClientConnections()
	srv.Close()
	checkLeaks()
}
