package server

import (
	"math"
	"net/http"
	"time"

	"pvcagg"
	"pvcagg/internal/obs"
)

// Metrics: every subsystem the service composes — admission control,
// the plan cache, the engine, the storage backend — publishes into one
// obs.Registry served at GET /metrics in text exposition format. It is
// the service's only instrument: GET /stats is a JSON reading of the
// same counters and histograms. State that already lives elsewhere (the
// plan cache's stats, the store I/O totals, in-flight and queued
// requests) is bridged with scrape-time Func instruments rather than
// counted twice.

// metrics holds the instruments the request path writes directly;
// everything Func-bridged lives only in the registry.
type metrics struct {
	reg *obs.Registry

	// Admission outcomes.
	requests *obs.Counter
	ok       *obs.Counter
	rejected *obs.Counter
	degraded *obs.Counter
	timeouts *obs.Counter
	errors   *obs.Counter
	panics   *obs.Counter

	// Per-request phases, in seconds.
	queueWait *obs.Histogram
	parse     *obs.Histogram
	exec      *obs.Histogram
	total     *obs.Histogram

	rows          *obs.Counter
	retries       *obs.Counter
	boundedBlocks *obs.Counter
}

// initMetrics builds the registry. Called once from New, after the plan
// cache exists.
func (s *Server) initMetrics() {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}

	m.requests = reg.Counter("pvcd_requests_total", "Queries received.")
	m.ok = reg.Counter("pvcd_requests_ok_total", "Queries answered 200.")
	m.rejected = reg.Counter("pvcd_requests_rejected_total", "Queries rejected 429 at admission.")
	m.degraded = reg.Counter("pvcd_requests_degraded_total", "Queries degraded to sound anytime bounds.")
	m.timeouts = reg.Counter("pvcd_requests_timeout_total", "Queries lost to their deadline.")
	m.errors = reg.Counter("pvcd_requests_error_total", "Queries failed with an error.")
	m.panics = reg.Counter("pvcd_panics_total", "Panics contained by the recovery middleware or engine workers.")
	reg.GaugeFunc("pvcd_inflight_queries", "Queries holding a worker slot right now.", s.inflight.Load)
	reg.GaugeFunc("pvcd_queued_requests", "Requests waiting for a worker slot.", s.waiting.Load)
	reg.GaugeFunc("pvcd_draining", "1 after BeginDrain flipped readiness off.", func() int64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("pvcd_uptime_seconds", "Seconds since the server was created.", func() int64 {
		return int64(time.Since(time.Unix(0, s.startNano)) / time.Second)
	})

	// Per-request phase latencies, in seconds (Prometheus convention).
	m.queueWait = reg.Histogram("pvcd_queue_wait_seconds", "Worker-slot queue wait per request.", nil)
	m.parse = reg.Histogram("pvcd_parse_seconds", "Parse+bind+optimize (or plan-cache hit) time per request.", nil)
	m.exec = reg.Histogram("pvcd_exec_seconds", "Engine execution time per request.", nil)
	m.total = reg.Histogram("pvcd_request_seconds", "End-to-end request time.", nil)

	// Plan cache, read at scrape time.
	reg.CounterFunc(`pvcd_plan_cache_events_total{event="hit"}`, "Plan cache lookups by outcome.", func() int64 {
		return s.plans.stats().Hits
	})
	reg.CounterFunc(`pvcd_plan_cache_events_total{event="miss"}`, "Plan cache lookups by outcome.", func() int64 {
		return s.plans.stats().Misses
	})
	reg.GaugeFunc("pvcd_plan_cache_entries", "Plans cached.", func() int64 {
		return s.plans.stats().Entries
	})

	// Storage I/O, when the backend exposes its counters (pvcd -store).
	if s.cfg.StoreMetrics != nil {
		storeCounter := func(name, help string, f func(pvcagg.StoreMetrics) int64) {
			reg.CounterFunc(name, help, func() int64 { return f(s.cfg.StoreMetrics()) })
		}
		storeCounter("pvcd_store_blocks_read_total", "Blocks decoded from disk.",
			func(m pvcagg.StoreMetrics) int64 { return m.BlocksRead })
		storeCounter("pvcd_store_blocks_skipped_total", "Blocks skipped via zone maps or annotation summaries.",
			func(m pvcagg.StoreMetrics) int64 { return m.BlocksSkipped })
		storeCounter("pvcd_store_bytes_read_total", "Encoded bytes read from disk.",
			func(m pvcagg.StoreMetrics) int64 { return m.BytesRead })
		storeCounter("pvcd_store_bytes_skipped_total", "Encoded bytes the block index saved.",
			func(m pvcagg.StoreMetrics) int64 { return m.BytesSkipped })
		storeCounter("pvcd_store_rows_read_total", "Rows decoded from disk.",
			func(m pvcagg.StoreMetrics) int64 { return m.RowsRead })
	}

	// Engine/retry outcomes accumulated per request in runQuery.
	m.rows = reg.Counter("pvcd_rows_returned_total", "Answer tuples returned across all queries.")
	m.retries = reg.Counter("pvcd_store_retries_total", "Store read retries spent under WithRetry budgets.")
	m.boundedBlocks = reg.Counter("pvcd_store_bounded_blocks_total", "Blocks soundly skipped after retry exhaustion (degraded answers).")

	s.m = m
}

// handleMetrics serves GET /metrics in Prometheus text exposition
// format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.m.reg.WritePrometheus(w)
}

// LatencyStats is one request phase on /stats: lifetime sample count and
// total in microseconds, read off the phase's pvcd_*_seconds histogram.
// Quantiles come from that histogram's buckets on /metrics.
type LatencyStats struct {
	Count   int64 `json:"count"`
	TotalUs int64 `json:"total_us"`
}

func latency(h *obs.Histogram) LatencyStats {
	return LatencyStats{Count: h.Count(), TotalUs: int64(math.Round(h.Sum() * 1e6))}
}

// handleStats serves GET /stats: the admission counters and phase
// totals of /metrics as one JSON object, next to the in-flight count,
// the drain flag and the plan-cache stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	m := s.m
	writeJSON(w, http.StatusOK, Stats{
		Requests:  m.requests.Value(),
		OK:        m.ok.Value(),
		Rejected:  m.rejected.Value(),
		Degraded:  m.degraded.Value(),
		Timeouts:  m.timeouts.Value(),
		Errors:    m.errors.Value(),
		Panics:    m.panics.Value(),
		InFlight:  s.inflight.Load(),
		Draining:  s.draining.Load(),
		QueueWait: latency(m.queueWait),
		Parse:     latency(m.parse),
		Exec:      latency(m.exec),
		Total:     latency(m.total),
		PlanCache: s.plans.stats(),
	})
}
