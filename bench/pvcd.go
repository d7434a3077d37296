package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pvcagg"
	"pvcagg/internal/server"
	"pvcagg/internal/tpch"
)

// pvcd-mixed: the ROADMAP's end-to-end path — HTTP → PVQL → optimizer →
// store-backed step I → step II → JSON. Set-up ingests probabilistic
// TPC-H into a store (Var annotations, so reads decode expressions) and
// starts the query service behind a real net/http listener on loopback,
// inside this process. A pass is a closed loop: two keep-alive clients
// (callers of pvcd wait for their reply) work through a seeded schedule
// of 400 POST /query slots. 70% of the slots draw from 16 hot texts,
// which the 128-entry plan cache holds; 30% send a text that no pass has
// sent before, so the server parses, binds and optimizes it. The modes
// are 60% exact, 25% anytime (eps 0.1) and 15% sample (1000 samples).
// There are no per-request deadlines and never more clients than
// workers, so nothing may be rejected or degraded: the engine is
// measured, not the admission policy.
//
// The seed draws the constants of the cold texts and deals the order of
// the slots in every pass. The data, the sixteen hot texts and which template
// meets which mode how often are the same at every seed, so every seed
// sends the same mix.

const (
	pvcdSF      = 0.01 // 60k lineitems, 15k orders, 8k partsupps, all facts annotated
	pvcdP       = 0.9
	pvcdSlots   = 400
	pvcdHot     = 16 // two per template, 35 slots each: 70 % of the traffic
	pvcdEps     = 0.1
	pvcdSamples = 1000
	pvcdData    = 1 // the generator seed of the dataset
)

// pvcdTemplate is one query shape. text renders it at constant c — and,
// for the two per-order templates, over w orders — with a bound that no
// row exceeds, raised by n: the answer does not depend on n, the text
// (and so the plan cache key) does.
type pvcdTemplate struct {
	name   string
	lo, hi int64 // range of the constant
	text   func(c, w, n int64) string
}

// noRow is beyond every key in the data.
const noRow = 1_000_000_000

var pvcdTemplates = []pvcdTemplate{
	{"q1-count", 60, 69, func(c, w, n int64) string {
		return fmt.Sprintf("SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem WHERE l_shipdate <= %d AND l_orderkey <= %d GROUP BY l_returnflag, l_linestatus", c, noRow+n)
	}},
	{"flag-sum", 40, 46, func(c, w, n int64) string {
		return fmt.Sprintf("SELECT l_returnflag, SUM(l_quantity) AS q FROM lineitem WHERE l_shipdate <= %d AND l_orderkey <= %d GROUP BY l_returnflag", c, noRow+n)
	}},
	{"order-lookup", 1, 14000, func(c, w, n int64) string {
		return fmt.Sprintf("SELECT l_linenumber, l_quantity FROM lineitem WHERE l_orderkey = %d AND l_shipdate <= %d", c, noRow+n)
	}},
	{"order-sum", 1, 14000, func(c, w, n int64) string {
		return fmt.Sprintf("SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem WHERE l_orderkey >= %d AND l_orderkey <= %d AND l_shipdate <= %d GROUP BY l_orderkey", c, c+w, noRow+n)
	}},
	{"sigma-sum", 1, 14000, func(c, w, n int64) string {
		return fmt.Sprintf("SELECT l_orderkey FROM (SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem WHERE l_orderkey >= %d AND l_orderkey <= %d AND l_shipdate <= %d GROUP BY l_orderkey) WHERE q >= 100", c, c+w, noRow+n)
	}},
	{"cust-count", 80, 89, func(c, w, n int64) string {
		return fmt.Sprintf("SELECT o_custkey, COUNT(*) AS n FROM (SELECT o_orderkey AS l_orderkey, o_custkey FROM orders WHERE o_orderkey <= %d) JOIN lineitem WHERE l_orderkey <= %d AND l_shipdate <= %d GROUP BY o_custkey", c, c, noRow+n)
	}},
	// No MIN or MAX here: over probabilistic rows their expectation is
	// infinite (an empty world aggregates to the monoid's neutral ±INF),
	// and pvcd fails to encode an infinite agg_expects as JSON.
	{"part-cost", 1, 1900, func(c, w, n int64) string {
		return fmt.Sprintf("SELECT ps_partkey, SUM(ps_supplycost) AS c FROM partsupp WHERE ps_partkey >= %d AND ps_partkey <= %d AND ps_suppkey <= %d GROUP BY ps_partkey", c, c+25, noRow+n)
	}},
	{"supp-count", 60, 69, func(c, w, n int64) string {
		return fmt.Sprintf("SELECT ps_suppkey, COUNT(*) AS n FROM partsupp WHERE ps_partkey <= %d AND ps_suppkey <= 40 AND ps_supplycost <= %d GROUP BY ps_suppkey", c, noRow+n)
	}},
}

// pvcdSlot is one slot of the schedule.
type pvcdSlot struct {
	tmpl *pvcdTemplate
	c, w int64
	hot  bool
	mode mode
}

// text is what the slot sends in a pass. Hot slots send the same text
// every time; cold slots raise the vacuous bound by a number unique to
// (pass, slot). Passes count from -1 (the warm-up).
func (s *pvcdSlot) text(pass, slot int) string {
	if s.hot {
		return s.tmpl.text(s.c, s.w, 0)
	}
	return s.tmpl.text(s.c, s.w, int64(pass+2)*pvcdSlots+int64(slot))
}

// pvcdSchedule builds the 400 slots. What is sent how often is the same
// at every seed — each of the eight templates gets 50 slots: 18 and 17
// for its two hot texts, 15 cold; 30 exact, 12 or 13 anytime, 8 or 7
// sample, dealt across hot and cold alike — because which template
// meets which mode decides the cost (a sampled 80-tuple answer is forty
// times an exact look-up), and a seed that changed the pairing would be
// a different benchmark. The hot texts sit at a third and two thirds of
// each template's range for the same reason: they are 70 % of the
// traffic, and the percentiles are theirs. The seed draws the cold
// constants and, pass by pass, the order of the slots.
func pvcdSchedule(rng *rand.Rand) []pvcdSlot {
	const perTmpl = pvcdSlots / 8
	pick := func(t *pvcdTemplate) int64 { return t.lo + rng.Int63n(t.hi-t.lo+1) }
	var slots []pvcdSlot
	for ti := range pvcdTemplates {
		t := &pvcdTemplates[ti]
		a, b := t.lo+(t.hi-t.lo)/3, t.lo+2*(t.hi-t.lo)/3 // sixteen distinct hot texts
		nAny, nSample := 13, 7
		if ti%2 == 1 {
			nAny, nSample = 12, 8
		}
		modes := make([]mode, 0, perTmpl)
		for i := 0; i < perTmpl; i++ {
			switch {
			case i < nSample:
				modes = append(modes, mode{name: "sample", samples: pvcdSamples, seed: 7})
			case i < nSample+nAny:
				modes = append(modes, mode{name: "anytime", eps: pvcdEps})
			default:
				modes = append(modes, modeExact)
			}
		}
		for i := 0; i < perTmpl; i++ {
			s := pvcdSlot{tmpl: t, mode: modes[i*7%perTmpl]} // 7 and 50 are coprime: a fixed spread
			// The cold per-order texts span 12 to 40 orders: their cost
			// fills the gap between the exact answers (under 16 ms) and
			// the sampled ones (over 20 ms), where op_ms_p90 would
			// otherwise sit on a cliff.
			switch {
			case i < 18:
				s.c, s.w, s.hot = a, 24, true
			case i < 35:
				s.c, s.w, s.hot = b, 24, true
			default:
				s.c, s.w = pick(t), int64(12+2*(i-35))
			}
			slots = append(slots, s)
		}
	}
	return slots
}

// pvcdClient posts queries over keep-alive connections.
type pvcdClient struct {
	url  string
	http *http.Client
}

// post sends one query and decodes the reply.
func (c *pvcdClient) post(ctx context.Context, text string, m mode) (*server.QueryResponse, int, error) {
	req := server.QueryRequest{Query: text, Mode: m.name}
	switch m.name {
	case "anytime":
		req.Eps = m.eps
	case "sample":
		req.Samples, req.Seed = m.samples, &m.seed
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(hr)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(b), fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(b, &qr); err != nil {
		return nil, len(b), err
	}
	if qr.Degraded {
		return nil, len(b), fmt.Errorf("degraded answer (%s)", qr.Strategy)
	}
	return &qr, len(b), nil
}

func responseRows(qr *server.QueryResponse) []row {
	rows := make([]row, len(qr.Rows))
	for i, r := range qr.Rows {
		rows[i] = row{Cells: r.Cells, Lo: r.Lo, Hi: r.Hi, Aggs: r.AggExpects}
	}
	return rows
}

// pvcdMixed is the workload at scale factor sf.
func pvcdMixed(sf float64) func(seed int64, dir string) (*instance, error) {
	return func(seed int64, dir string) (*instance, error) { return setupPvcdMixed(seed, dir, sf) }
}

func setupPvcdMixed(seed int64, dir string, sf float64) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	in, err := ingest(tpch.Config{SF: sf, Seed: pvcdData, Probabilistic: true, TupleProb: pvcdP}, dir)
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	clients := min(workers, 2)
	srv := server.New(in.st.DB(), server.Config{Workers: workers, Health: in.st.Healthy, StoreMetrics: in.st.Metrics})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	cl := &pvcdClient{
		url:  "http://" + ln.Addr().String(),
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}},
	}
	slots := pvcdSchedule(rng)
	// The traced run's replay reads through a handle of its own, one
	// replay at a time, so its store counters are exact counts and not a
	// mix with what the server read for the other client meanwhile.
	replaySt, err := pvcagg.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	var replayMu sync.Mutex

	inst := &instance{
		clients: clients,
		// With two clients, what an op costs depends on what the other
		// client is running meanwhile. Every pass deals the slots anew,
		// so an op's median over the passes is over many neighbours and
		// not over the one a fixed order would give it (ten seeds, fixed
		// order: op_ms_p50 4.8 to 5.6 ms).
		order: func(pass int) []int {
			return rand.New(rand.NewSource(seed<<16 + int64(pass) + 2)).Perm(pvcdSlots)
		},
		layer: in.layer(),
		notes: []string{
			fmt.Sprintf("pvcd: closed loop, %d keep-alive clients, %d workers, %d slots per pass (70%% from %d hot texts); probabilistic TPC-H SF %g, %d rows, %.1f MB on disk",
				clients, workers, pvcdSlots, pvcdHot, sf, in.rows, float64(in.diskSize)/1e6),
			"server and load generator share this process: cpu_ms_per_op, alloc_mb_per_op and peak_rss_mb include the two client goroutines (JSON encode/decode of each request)",
		},
	}
	for i := range slots {
		i, s := i, &slots[i]
		inst.ops = append(inst.ops, op{
			id:    fmt.Sprintf("slot %03d %s c=%d hot=%t | %s", i, s.tmpl.name, s.c, s.hot, s.mode),
			exact: s.mode.name == "exact",
			// pvcd shares one compilation cache between requests, and
			// what a concurrent request left in it moves an anytime
			// closure's budget: the bounds stay sound but not identical.
			unstable: s.mode.name == "anytime",
			run: func(ctx context.Context, pass int) (*answer, error) {
				qr, _, err := cl.post(ctx, s.text(pass, i), s.mode)
				if err != nil {
					return nil, err
				}
				return &answer{rows: responseRows(qr)}, nil
			},
			stage: func(ctx context.Context, pass int, sp *spanCtx) (*answer, error) {
				text := s.text(pass, i)
				h := sp.child("server.http")
				qr, n, err := cl.post(ctx, text, s.mode)
				h.end()
				if err != nil {
					return nil, err
				}
				t := sp.t
				wait, parse, exec := time.Duration(qr.Timings.QueueWaitUs)*time.Microsecond, time.Duration(qr.Timings.ParseUs)*time.Microsecond, time.Duration(qr.Timings.ExecUs)*time.Microsecond
				h.reported("server.queue_wait", 0, wait)
				h.reported("server.parse", wait, parse)
				h.reported("server.exec", wait+parse, exec)
				t.count("server.requests", 1)
				t.count("server.resp_bytes", float64(n))
				if qr.CachedPlan {
					t.count("server.plan_hits", 1)
				}
				got := &answer{rows: responseRows(qr)}
				// The op ends with the reply. What follows attributes the
				// server's exec time to the library layers under it: the
				// same text and mode staged in-process against the same
				// store, under a root span of its own.
				sp.end()
				replayMu.Lock()
				rp := t.open("replay", i, pass, -1)
				re, err := stageQuery(ctx, rp, nil, replaySt, text, s.mode, true, !qr.CachedPlan)
				rp.end()
				replayMu.Unlock()
				if err != nil {
					return nil, fmt.Errorf("replay: %w", err)
				}
				if s.mode.name != "anytime" && re.digest() != got.digest() {
					return nil, fmt.Errorf("replay digest %s differs from the response's %s", re.digest(), got.digest())
				}
				got.extra = re.extra // the step-I relation, for the oracle
				return got, nil
			},
		})
	}
	// Every slot's last answer against the library facade on the same
	// store: equal for exact and sample, containing the exact confidence
	// for anytime and sample.
	inst.verify = func(ctx context.Context, last []*answer) map[int]string {
		bad := map[int]string{}
		memo := map[string]*answer{}
		lib := func(text string, m mode) (*answer, error) {
			k := m.String() + "|" + text
			if a, ok := memo[k]; ok {
				return a, nil
			}
			a, err := runQuery(ctx, nil, in.st, text, m, true)
			if err == nil {
				memo[k] = a
			}
			return a, err
		}
		for i := range slots {
			s := &slots[i]
			text := s.tmpl.text(s.c, s.w, 0)
			exact, err := lib(text, modeExact)
			if err != nil {
				bad[i] = "library rerun: " + err.Error()
				continue
			}
			switch s.mode.name {
			case "exact":
				if last[i].digest() != exact.digest() {
					bad[i] = fmt.Sprintf("response digest %s, library %s", last[i].digest(), exact.digest())
				}
			case "sample":
				// The same seeded estimate as the library's, and within
				// its interval of the exact confidence.
				if same, err := lib(text, s.mode); err != nil {
					bad[i] = "library rerun: " + err.Error()
				} else if last[i].digest() != same.digest() {
					bad[i] = fmt.Sprintf("response digest %s, library %s", last[i].digest(), same.digest())
				}
				fallthrough
			default:
				if msg := checkContains(last[i].rows, exact.rows, s.mode); msg != "" && bad[i] == "" {
					bad[i] = "containment: " + msg
				}
			}
		}
		return bad
	}
	inst.traced = func(ctx context.Context, t *tracer) error {
		resp, err := cl.http.Get(cl.url + "/stats")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var st server.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return err
		}
		t.count("server.rejected", float64(st.Rejected))
		t.count("server.degraded", float64(st.Degraded))
		return nil
	}
	inst.close = func() error {
		cl.http.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-served
		return err
	}
	return inst, nil
}
