// Package server implements pvcd, the long-running HTTP query service
// over a pvc-table database: PVQL in, per-tuple confidences (points or
// sound [lo,hi] bounds) and aggregation expectations out as JSON.
//
// The service multiplexes concurrent queries over a shared worker
// budget with admission control: Config.Workers queries execute at
// once, up to Config.QueueDepth more wait at most Config.MaxQueueWait
// for a slot, and everything beyond that is rejected immediately with
// 429 (Retry-After set) — saturation degrades into fast rejections the
// client can back off on, never into an unbounded queue. A request that
// waited longer than Config.DegradeAfter and is not pinned to an exact
// strategy is degraded instead of queued further: it runs the anytime
// engine at the (wider) Config.DegradeEps under a slice of its
// remaining deadline, returning sound unconverged bounds rather than
// holding its worker slot to convergence. Every request carries a
// context derived from the client connection and a deadline
// (min(request timeout_ms, Config.MaxTimeout)), so disconnects and
// deadlines cancel the in-flight compilation promptly.
//
// The plan cache makes the replayed-query workload cheap: it memoises
// parsed+optimized plans by query text (the prepared-statement pattern)
// for the one database the server was created with. Nothing else is
// carried from one request to the next, so an answer is a function of
// the query and the database alone.
//
// Endpoints: POST /query (QueryRequest in, QueryResponse out; EXPLAIN
// and EXPLAIN ANALYZE query prefixes return the plan tree in the
// response's explain field, and "trace": true returns the execution
// trace and the query's counters), GET /metrics (Prometheus text
// exposition: admission counters, phase latency histograms, cache and
// store series), GET /stats (Stats: the same counters and each phase's
// count and total as JSON, plus the plan cache), GET /healthz (liveness
// plus build info), GET /readyz.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"pvcagg"
)

// Config tunes the service; zero values select the documented defaults.
type Config struct {
	// Workers bounds the queries executing at once (0 ⇒ GOMAXPROCS).
	Workers int
	// QueueDepth bounds the requests waiting for a worker slot beyond
	// the executing ones (0 ⇒ 4×Workers); requests arriving with the
	// queue full are rejected with 429 immediately.
	QueueDepth int
	// MaxQueueWait bounds how long an admitted-to-queue request waits
	// for a slot before a 429 (0 ⇒ 1s).
	MaxQueueWait time.Duration
	// MaxTimeout is the per-request execution deadline: the default when
	// the request carries no timeout_ms, and the cap when it does
	// (0 ⇒ 30s).
	MaxTimeout time.Duration
	// DegradeAfter is the queue wait beyond which a non-exact request is
	// degraded to anytime bounds at DegradeEps instead of running at its
	// requested precision (0 ⇒ MaxQueueWait/4).
	DegradeAfter time.Duration
	// DegradeEps is the anytime target width degraded requests run at
	// (0 ⇒ 0.05). A request asking for a wider ε keeps its own.
	DegradeEps float64
	// PlanCacheSize bounds the prepared-statement plan cache (0 ⇒ 128).
	PlanCacheSize int
	// Parallelism is the per-query worker bound passed to the engine
	// (0 ⇒ 1, sequential — the service gets its parallelism across
	// queries, so per-query fan-out only helps an idle server).
	Parallelism int
	// MaxBodyBytes caps the request body read from a client (0 ⇒ 1 MiB);
	// larger bodies fail the JSON decode with a 400.
	MaxBodyBytes int64
	// Retry, when non-nil, attaches this per-query retry budget for
	// transient store read errors to every execution (see
	// pvcagg.WithRetry). Bounded skips surface as degraded:true.
	Retry *pvcagg.RetryPolicy
	// Health, when non-nil, is the storage backend's sticky health probe
	// (e.g. (*pvcagg.Store).Healthy): a non-nil result flips /readyz to
	// 503 until the backend recovers.
	Health func() error
	// StoreMetrics, when non-nil, exposes the storage backend's
	// cumulative I/O counters (e.g. (*pvcagg.Store).Metrics) as
	// pvcd_store_* series on /metrics.
	StoreMetrics func() pvcagg.StoreMetrics
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = c.MaxQueueWait / 4
	}
	if c.DegradeEps <= 0 {
		c.DegradeEps = 0.05
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 128
	}
	if c.Parallelism == 0 {
		c.Parallelism = 1
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Server is the query service. Create with New, expose via Handler.
type Server struct {
	cfg       Config
	db        *pvcagg.Database
	plans     *planCache
	slots     chan struct{}
	waiting   atomic.Int64
	inflight  atomic.Int64
	m         *metrics
	draining  atomic.Bool
	startNano int64
	reqSeq    atomic.Int64

	// execGate, when set, runs while the request holds its worker slot,
	// just before execution — the test hook that makes admission-control
	// tests deterministic (hold N gates open, assert the N+1st request's
	// fate) without sleeping on real query latency.
	execGate func()
}

// New returns a Server serving queries against db.
func New(db *pvcagg.Database, cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), db: db, startNano: time.Now().UnixNano()}
	s.plans = newPlanCache(s.cfg.PlanCacheSize)
	s.slots = make(chan struct{}, s.cfg.Workers)
	s.initMetrics()
	return s
}

// BeginDrain flips readiness off: /readyz answers 503 so load balancers
// stop routing here, while /healthz (liveness) and in-flight queries —
// and even new requests on already-open connections — keep working.
// Call it before http.Server.Shutdown to drain gracefully.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Handler returns the service's HTTP handler: the endpoints wrapped in
// the request-ID and panic-containment middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	// Liveness: the process is up and serving. Stays 200 through drain
	// and backend trouble — restarting the process fixes neither.
	mux.HandleFunc("/healthz", s.handleHealthz)
	// Readiness: willing to take *new* traffic. 503 while draining or
	// while the storage backend reports sticky failures.
	mux.HandleFunc("/readyz", s.handleReady)
	return s.withRequestID(s.withRecovery(mux))
}

// buildInfo is the GET /healthz body: liveness plus enough build
// identity to tell which binary answered — module path and version from
// the build metadata, the Go toolchain it was compiled with, and the
// effective GOMAXPROCS (the default worker budget).
type buildInfo struct {
	Status     string `json:"status"`
	Module     string `json:"module"`
	Version    string `json:"version"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bi := buildInfo{
		Status:     "ok",
		Module:     "pvcagg",
		Version:    "(devel)",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		if info.Main.Path != "" {
			bi.Module = info.Main.Path
		}
		if info.Main.Version != "" {
			bi.Version = info.Main.Version
		}
	}
	writeJSON(w, http.StatusOK, bi)
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErrorCode(w, http.StatusServiceUnavailable, "draining", "draining: not accepting new traffic")
		return
	}
	if s.cfg.Health != nil {
		if err := s.cfg.Health(); err != nil {
			writeErrorCode(w, http.StatusServiceUnavailable, "backend_unhealthy", err.Error())
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// withRequestID accepts the client's X-Request-ID (or mints one) and
// echoes it on the response, so chaos-run failures are attributable in
// logs and error bodies.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if rid == "" || len(rid) > 128 {
			rid = fmt.Sprintf("pvcd-%x-%d", s.startNano, s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", rid)
		next.ServeHTTP(w, r)
	})
}

// withRecovery converts a handler panic into a structured 500 carrying
// the request ID, and counts it in /stats — one broken request must not
// kill the process or the other in-flight queries.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.m.panics.Add(1)
				writeErrorCode(w, http.StatusInternalServerError, "panic", fmt.Sprintf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Query is the PVQL text (required).
	Query string `json:"query"`
	// Mode selects the strategy: "auto" (default), "exact", "anytime"
	// or "sample".
	Mode string `json:"mode,omitempty"`
	// Eps is the anytime target bound width (auto/anytime modes).
	Eps float64 `json:"eps,omitempty"`
	// TimeoutMs is the request deadline; capped at Config.MaxTimeout.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Seed seeds the sampling strategy (required by mode "sample" —
	// the engine has no ambient randomness).
	Seed *int64 `json:"seed,omitempty"`
	// Samples is the Monte Carlo sample count (mode "sample").
	Samples int `json:"samples,omitempty"`
	// Trace asks for the execution trace (span tree with wall times) and
	// the query's counters in the response.
	Trace bool `json:"trace,omitempty"`
}

// QueryRow is one answer tuple: its cells rendered as strings, its
// confidence interval (lo == hi under exact strategies) and the
// expectation of each aggregation column.
type QueryRow struct {
	Cells      []string     `json:"cells"`
	Lo         float64      `json:"lo"`
	Hi         float64      `json:"hi"`
	Converged  bool         `json:"converged"`
	AggExpects Expectations `json:"agg_expects,omitempty"`
}

// Expectations is the agg_expects array of a row: one expectation per
// aggregation column, in schema order. An entry is JSON null when the
// expectation is not finite — MIN and MAX over probabilistic rows take
// +∞ / −∞ in the worlds where no row survives, so their expectation is
// infinite whenever that has positive probability. Decoding maps null
// back to NaN.
type Expectations []float64

// MarshalJSON renders non-finite entries, which JSON cannot carry, as null.
func (e Expectations) MarshalJSON() ([]byte, error) {
	raw := make([]*float64, len(e))
	for i, x := range e {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			raw[i] = &e[i]
		}
	}
	return json.Marshal(raw)
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (e *Expectations) UnmarshalJSON(data []byte) error {
	var raw []*float64
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	*e = make(Expectations, len(raw))
	for i, x := range raw {
		(*e)[i] = math.NaN()
		if x != nil {
			(*e)[i] = *x
		}
	}
	return nil
}

// Timings is the per-request phase split, microseconds.
type Timings struct {
	QueueWaitUs int64 `json:"queue_wait_us"`
	ParseUs     int64 `json:"parse_us"`
	ExecUs      int64 `json:"exec_us"`
}

// QueryResponse is the POST /query result.
type QueryResponse struct {
	Rows []QueryRow `json:"rows"`
	// Strategy is the engine's chosen-strategy rendering (e.g.
	// "anytime(ε=0.05)"; under mode auto "auto(ε=…)", each row's
	// converged flag and [lo, hi] saying how it ran).
	Strategy string `json:"strategy"`
	// Degraded reports a sound-bounds degradation: admission pressure
	// demoted this request to anytime bounds at the degraded ε, or the
	// retry budget ran out on blocks provably contributing nothing
	// (all-zero annotation summaries) and they were skipped. Rows may be
	// unconverged or missing only confidence-0 tuples; every reported
	// [lo,hi] interval is still guaranteed sound.
	Degraded bool `json:"degraded"`
	// CachedPlan reports a prepared-statement cache hit.
	CachedPlan bool `json:"cached_plan"`
	// RequestID echoes X-Request-ID (client-provided or generated).
	RequestID string  `json:"request_id,omitempty"`
	Timings   Timings `json:"timings"`
	// Explain is the plan tree for EXPLAIN-prefixed queries: row bounds
	// only under EXPLAIN (rows is empty, nothing executed), row bounds
	// next to per-operator actuals under EXPLAIN ANALYZE.
	Explain *pvcagg.ExplainNode `json:"explain,omitempty"`
	// Trace is the execution trace's span tree: each stage's wall time.
	// Present when the request set "trace": true.
	Trace []pvcagg.SpanView `json:"trace,omitempty"`
	// Counters is what the query counted — its rows, its own store I/O,
	// its d-trees and distributions (pvcagg.Counters). Present when the
	// request set "trace": true.
	Counters *pvcagg.Counters `json:"counters,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Code types the failure for programmatic clients: "panic",
	// "partial_failure", "draining", "backend_unhealthy", "encode".
	Code string `json:"code,omitempty"`
	// RequestID echoes X-Request-ID, tying the failure to server logs.
	RequestID string `json:"request_id,omitempty"`
}

// Stats is the GET /stats body.
type Stats struct {
	Requests int64 `json:"requests"`
	OK       int64 `json:"ok"`
	Rejected int64 `json:"rejected"`
	Degraded int64 `json:"degraded"`
	Timeouts int64 `json:"timeouts"`
	Errors   int64 `json:"errors"`
	// Panics counts contained panics: request handlers recovered by the
	// middleware plus engine worker panics converted to typed errors.
	Panics   int64 `json:"panics"`
	InFlight int64 `json:"in_flight"`
	// Draining reports that BeginDrain has flipped readiness off.
	Draining bool `json:"draining"`

	QueueWait LatencyStats `json:"queue_wait"`
	Parse     LatencyStats `json:"parse"`
	Exec      LatencyStats `json:"exec"`
	Total     LatencyStats `json:"total"`

	PlanCache PlanCacheStats `json:"plan_cache"`
}

var errSaturated = errors.New("server saturated")

// admit acquires a worker slot, queueing up to MaxQueueWait behind at
// most QueueDepth other waiters. It returns the queue wait and a
// release function, or errSaturated / the context's error.
func (s *Server) admit(ctx context.Context) (time.Duration, func(), error) {
	release := func() { <-s.slots }
	select {
	case s.slots <- struct{}{}:
		return 0, release, nil
	default:
	}
	if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		return 0, nil, errSaturated
	}
	defer s.waiting.Add(-1)
	t0 := time.Now()
	timer := time.NewTimer(s.cfg.MaxQueueWait)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		return time.Since(t0), release, nil
	case <-timer.C:
		return time.Since(t0), nil, errSaturated
	case <-ctx.Done():
		return time.Since(t0), nil, ctx.Err()
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad request body: "+err.Error())
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "empty query")
		return
	}
	s.m.requests.Add(1)
	total0 := time.Now()

	timeout := s.cfg.MaxTimeout
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	// The request context carries both cancellation sources: the client
	// connection (r.Context is cancelled on disconnect) and the deadline.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	wait, release, err := s.admit(ctx)
	s.m.queueWait.Observe(wait.Seconds())
	if err != nil {
		if errors.Is(err, errSaturated) {
			s.m.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "saturated: all workers busy and the queue is full")
			return
		}
		s.m.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded while queued")
		return
	}
	defer release()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.execGate != nil {
		s.execGate()
	}

	// A request that queued past DegradeAfter has already paid latency;
	// rather than spend its remaining deadline chasing the requested
	// precision, demote it to anytime bounds at the degraded ε under a
	// slice of what's left. Exact and sample requests keep their
	// semantics — degradation only widens a tolerance the client already
	// declared (or defaulted) elastic.
	degraded := wait > s.cfg.DegradeAfter && degradable(req.Mode)

	parse0 := time.Now()
	entry, cachedPlan, err := s.lookupPlan(req.Query)
	parseDur := time.Since(parse0)
	s.m.parse.Observe(parseDur.Seconds())
	if err != nil {
		s.m.errors.Add(1)
		msg := err.Error()
		var qe *pvcagg.QueryError
		if errors.As(err, &qe) {
			msg = qe.Render(req.Query)
		}
		writeError(w, http.StatusBadRequest, msg)
		return
	}
	if entry.explain == pvcagg.ExplainPlan {
		// EXPLAIN without ANALYZE: report the optimized plan with
		// its row bounds and execute nothing — the worker slot is
		// released without an exec phase.
		s.m.total.Observe(time.Since(total0).Seconds())
		s.answer(w, &QueryResponse{
			Rows:       []QueryRow{},
			Strategy:   "explain",
			Explain:    pvcagg.Explain(s.db, entry.plan),
			CachedPlan: cachedPlan,
			RequestID:  w.Header().Get("X-Request-ID"),
			Timings:    Timings{QueueWaitUs: wait.Microseconds(), ParseUs: parseDur.Microseconds()},
		})
		return
	}
	opts, err := s.execOptions(&req, degraded, ctx)
	if err != nil {
		s.m.errors.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if entry.explain == pvcagg.ExplainAnalyze {
		opts = append(opts, pvcagg.WithExplainAnalyze())
	}
	if req.Trace {
		opts = append(opts, pvcagg.WithTrace(pvcagg.NewTrace()))
	}

	exec0 := time.Now()
	resp, err := s.runQuery(ctx, entry.plan, opts)
	execDur := time.Since(exec0)
	totalDur := time.Since(total0)
	s.m.exec.Observe(execDur.Seconds())
	s.m.total.Observe(totalDur.Seconds())
	if err != nil {
		if ctx.Err() != nil {
			s.m.timeouts.Add(1)
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded: "+ctx.Err().Error())
			return
		}
		s.m.errors.Add(1)
		switch {
		case errors.Is(err, pvcagg.ErrStorePartial):
			// Typed partial failure: part of the store stayed unreadable
			// after retries and was not provably boundable — there is no
			// sound answer to give, degraded or otherwise.
			writeErrorCode(w, http.StatusServiceUnavailable, "partial_failure", err.Error())
		case errors.Is(err, pvcagg.ErrUndefined):
			writeError(w, http.StatusUnprocessableEntity, err.Error())
		case pvcagg.IsPanic(err):
			s.m.panics.Add(1)
			writeErrorCode(w, http.StatusInternalServerError, "panic", err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	// resp.Degraded may already be set by a sound bounded-skip in the
	// store layer; admission-pressure demotion is the second source.
	resp.Degraded = resp.Degraded || degraded
	resp.CachedPlan = cachedPlan
	resp.RequestID = w.Header().Get("X-Request-ID")
	resp.Timings = Timings{
		QueueWaitUs: wait.Microseconds(),
		ParseUs:     parseDur.Microseconds(),
		ExecUs:      execDur.Microseconds(),
	}
	s.answer(w, resp)
}

// answer encodes resp before counting it and before the status line: an
// answer JSON cannot carry is a failed request, not an empty 200.
func (s *Server) answer(w http.ResponseWriter, resp *QueryResponse) {
	body, err := encodeJSON(resp)
	if err != nil {
		s.m.errors.Add(1)
		writeEncodeError(w, err)
		return
	}
	s.m.ok.Add(1)
	if resp.Degraded {
		s.m.degraded.Add(1)
	}
	writeBody(w, http.StatusOK, body)
}

// degradable reports whether the requested mode tolerates the anytime
// demotion (it already returns interval answers, or lets the engine
// choose).
func degradable(mode string) bool {
	return mode == "" || mode == "auto" || mode == "anytime"
}

// lookupPlan serves the optimized plan (and the query text's EXPLAIN
// mode) from the prepared-statement cache, compiling and caching on
// miss.
func (s *Server) lookupPlan(query string) (planEntry, bool, error) {
	if e, ok := s.plans.get(query); ok {
		return e, true, nil
	}
	plan, mode, err := pvcagg.ParseQuery(s.db, query)
	if err != nil {
		return planEntry{}, false, err
	}
	e := planEntry{plan: plan, explain: mode}
	s.plans.put(query, e)
	return e, false, nil
}

// execOptions translates the request (and any degradation) into engine
// options.
func (s *Server) execOptions(req *QueryRequest, degraded bool, ctx context.Context) ([]pvcagg.Option, error) {
	opts := []pvcagg.Option{pvcagg.WithParallelism(s.cfg.Parallelism)}
	if s.cfg.Retry != nil {
		opts = append(opts, pvcagg.WithRetry(*s.cfg.Retry))
	}
	if req.Eps < 0 || req.Eps >= 1 {
		return nil, fmt.Errorf("eps %v out of range [0, 1)", req.Eps)
	}
	if degraded {
		// Anytime at the degraded ε (never narrower than requested), with
		// a per-tuple timeout at half the remaining deadline: the engine
		// returns sound unconverged bounds instead of running into the
		// deadline and yielding nothing.
		eps := s.cfg.DegradeEps
		if req.Eps > eps {
			eps = req.Eps
		}
		var budgets pvcagg.ApproxOptions
		if dl, ok := ctx.Deadline(); ok {
			if remaining := time.Until(dl); remaining > 0 {
				budgets.Timeout = remaining / 2
			}
		}
		return append(opts, pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(eps), pvcagg.WithApprox(budgets)), nil
	}
	switch req.Mode {
	case "", "auto":
		opts = append(opts, pvcagg.WithMode(pvcagg.Auto))
		if req.Eps > 0 {
			opts = append(opts, pvcagg.WithEps(req.Eps))
		}
	case "exact":
		if req.Eps != 0 {
			return nil, errors.New(`eps conflicts with mode "exact"`)
		}
		opts = append(opts, pvcagg.WithMode(pvcagg.Exact))
	case "anytime":
		opts = append(opts, pvcagg.WithMode(pvcagg.Anytime))
		if req.Eps > 0 {
			opts = append(opts, pvcagg.WithEps(req.Eps))
		}
	case "sample":
		if req.Seed == nil {
			return nil, errors.New(`mode "sample" requires an explicit seed (no ambient randomness; estimates must be reproducible)`)
		}
		if req.Eps != 0 {
			return nil, errors.New(`eps conflicts with mode "sample"; set samples instead`)
		}
		opts = append(opts, pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(*req.Seed))
		if req.Samples > 0 {
			opts = append(opts, pvcagg.WithSamples(req.Samples))
		}
	default:
		return nil, fmt.Errorf("unknown mode %q (want auto, exact, anytime or sample)", req.Mode)
	}
	return opts, nil
}

// runQuery executes the plan and renders the answer tuples.
func (s *Server) runQuery(ctx context.Context, plan pvcagg.Plan, opts []pvcagg.Option) (*QueryResponse, error) {
	res, err := pvcagg.Exec(ctx, s.db, plan, opts...)
	if err != nil {
		return nil, err
	}
	outs, err := res.Collect()
	if err != nil {
		return nil, err
	}
	s.m.rows.Add(int64(len(outs)))
	s.m.retries.Add(res.Report.Store.Retries)
	s.m.boundedBlocks.Add(res.Report.Store.BoundedBlocks)
	resp := &QueryResponse{
		Strategy: res.Strategy.String(),
		Rows:     make([]QueryRow, len(outs)),
		Explain:  res.Report.Explain,
		Trace:    res.Report.Trace.Spans(),
		// Bounded skips are sound — the dropped blocks provably held only
		// zero-annotated rows — but the client should know the answer
		// omits confidence-0 tuples it might otherwise have listed.
		Degraded: res.Report.Store.BoundedBlocks > 0,
	}
	if res.Report.Trace != nil {
		resp.Counters = &res.Report.Counters
	}
	for i, o := range outs {
		row := QueryRow{
			Cells:     make([]string, len(o.Tuple.Cells)),
			Lo:        o.Confidence.Lo,
			Hi:        o.Confidence.Hi,
			Converged: o.Report.Approx == nil || o.Report.Approx.Converged,
		}
		for j, c := range o.Tuple.Cells {
			row.Cells[j] = c.String()
		}
		for _, d := range o.AggDists {
			row.AggExpects = append(row.AggExpects, d.Expectation())
		}
		resp.Rows[i] = row
	}
	return resp, nil
}

func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // the client hung up; there is no one left to tell
}

// writeJSON sends v with the given status. A value encoding/json refuses
// (a non-finite float) is reported as a typed 500 rather than sent as an
// empty body under the intended status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, status, body)
}

// writeEncodeError reports err; its own body holds strings only, so the
// mutual recursion with writeJSON ends there.
func writeEncodeError(w http.ResponseWriter, err error) {
	writeErrorCode(w, http.StatusInternalServerError, "encode", "response is not encodable: "+err.Error())
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeErrorCode(w, status, "", msg)
}

// writeErrorCode renders a typed error body; the request ID was already
// stamped on the response headers by the middleware.
func writeErrorCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Code: code, RequestID: w.Header().Get("X-Request-ID")})
}
