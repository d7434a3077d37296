package server

import (
	"net/http"
	"time"

	"pvcagg"
	"pvcagg/internal/obs"
)

// Prometheus-style metrics: every subsystem the service composes —
// admission control, the two caches, the engine, the storage backend —
// publishes into one obs.Registry served at GET /metrics in text
// exposition format. Counters that already live in atomics (the /stats
// admission counters, the cache stats, the store I/O totals) are
// bridged with scrape-time Func instruments rather than double-counted;
// phase latencies get real histograms observed at the same sites as the
// /stats sliding-window recorders, so the two surfaces can never
// disagree about what happened.

// promMetrics holds the instruments the request path writes directly;
// everything Func-bridged lives only in the registry.
type promMetrics struct {
	reg *obs.Registry

	queueWait *obs.Histogram
	parse     *obs.Histogram
	exec      *obs.Histogram
	total     *obs.Histogram

	rows          *obs.Counter
	retries       *obs.Counter
	boundedBlocks *obs.Counter
}

// initProm builds the registry. Called once from New, after the
// admission metrics and the first session exist.
func (s *Server) initProm() {
	reg := obs.NewRegistry()
	p := &promMetrics{reg: reg}

	// Admission outcomes: scrape-time bridges over the /stats atomics.
	reg.CounterFunc("pvcd_requests_total", "Queries received.", s.m.requests.Load)
	reg.CounterFunc("pvcd_requests_ok_total", "Queries answered 200.", s.m.ok.Load)
	reg.CounterFunc("pvcd_requests_rejected_total", "Queries rejected 429 at admission.", s.m.rejected.Load)
	reg.CounterFunc("pvcd_requests_degraded_total", "Queries degraded to sound anytime bounds.", s.m.degraded.Load)
	reg.CounterFunc("pvcd_requests_timeout_total", "Queries lost to their deadline.", s.m.timeouts.Load)
	reg.CounterFunc("pvcd_requests_error_total", "Queries failed with an error.", s.m.errors.Load)
	reg.CounterFunc("pvcd_panics_total", "Panics contained by the recovery middleware or engine workers.", s.m.panics.Load)
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
	p.queueWait = reg.Histogram("pvcd_queue_wait_seconds", "Worker-slot queue wait per request.", nil)
	p.parse = reg.Histogram("pvcd_parse_seconds", "Parse+bind+optimize (or plan-cache hit) time per request.", nil)
	p.exec = reg.Histogram("pvcd_exec_seconds", "Engine execution time per request.", nil)
	p.total = reg.Histogram("pvcd_request_seconds", "End-to-end request time.", nil)

	// Plan cache: read off the *current* session at scrape time — a Swap
	// resets these series along with the cache they describe, which is
	// the truthful reading (the old cache is gone).
	reg.CounterFunc(`pvcd_plan_cache_events_total{event="hit"}`, "Plan cache lookups by outcome.", func() int64 {
		return s.sess.Load().plans.stats().Hits
	})
	reg.CounterFunc(`pvcd_plan_cache_events_total{event="miss"}`, "Plan cache lookups by outcome.", func() int64 {
		return s.sess.Load().plans.stats().Misses
	})
	reg.GaugeFunc("pvcd_plan_cache_entries", "Plans cached in the current session.", func() int64 {
		return s.sess.Load().plans.stats().Entries
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
	p.rows = reg.Counter("pvcd_rows_returned_total", "Answer tuples returned across all queries.")
	p.retries = reg.Counter("pvcd_store_retries_total", "Store read retries spent under WithRetry budgets.")
	p.boundedBlocks = reg.Counter("pvcd_store_bounded_blocks_total", "Blocks soundly skipped after retry exhaustion (degraded answers).")

	s.prom = p
}

// handleMetrics serves GET /metrics in Prometheus text exposition
// format (version 0.0.4).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.prom.reg.WritePrometheus(w)
}
