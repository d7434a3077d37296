package benchx

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the pvcd workload driver: N parallel synthetic clients
// hammering a query service handler with a fixed mix of raw JSON
// request bodies, reporting tail latency (p50/p95/p99) and the
// admission-control outcome counts. It drives the http.Handler
// directly — no sockets — so the measured latencies are the service's,
// not the loopback stack's, and the driver stays decoupled from the
// server package (it never parses responses beyond status codes and the
// "degraded" marker).

// WorkloadConfig shapes one driver run.
type WorkloadConfig struct {
	// Clients is the number of parallel clients (0 ⇒ 8).
	Clients int
	// Requests is the number of requests per client; 0 runs until the
	// context is cancelled (the smoke-test shape).
	Requests int
	// Seed seeds each client's request-mix choice (default 1); client i
	// draws from Seed+i, so runs are reproducible.
	Seed int64
	// Path is the request path (default "/query").
	Path string
	// Bodies are the raw JSON request bodies the mix samples uniformly.
	Bodies []string
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Path == "" {
		c.Path = "/query"
	}
	return c
}

// WorkloadReport is the outcome of one driver run.
type WorkloadReport struct {
	Total    int // requests issued
	OK       int // 200s
	Rejected int // 429s (admission control)
	Timeouts int // 504s (deadline)
	Errors   int // anything else
	Degraded int // 200s the server demoted to anytime bounds
	Elapsed  time.Duration
	// P50, P95 and P99 are latency percentiles over successful requests.
	P50, P95, P99 time.Duration
	// Throughput is successful requests per second over the run.
	Throughput float64
}

// wlRecorder is the minimal http.ResponseWriter the driver needs — a
// status code and enough body to spot the degraded marker.
type wlRecorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func (r *wlRecorder) Header() http.Header {
	if r.header == nil {
		r.header = http.Header{}
	}
	return r.header
}

func (r *wlRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *wlRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

// RunWorkload drives the handler with Clients parallel clients and
// reports latency percentiles and outcome counts. Every request carries
// ctx, so cancelling it both ends an open-ended run and aborts in-flight
// queries.
func RunWorkload(ctx context.Context, h http.Handler, cfg WorkloadConfig) (WorkloadReport, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Bodies) == 0 {
		return WorkloadReport{}, fmt.Errorf("benchx: workload has no request bodies")
	}
	type clientTally struct {
		latencies                                 []time.Duration
		total, ok, rejected, timeouts, errs, degr int
	}
	tallies := make([]clientTally, cfg.Clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)))
			tl := &tallies[c]
			for i := 0; cfg.Requests == 0 || i < cfg.Requests; i++ {
				if ctx.Err() != nil {
					return
				}
				body := cfg.Bodies[rng.Intn(len(cfg.Bodies))]
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.Path, strings.NewReader(body))
				if err != nil {
					tl.errs++
					tl.total++
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				rec := &wlRecorder{}
				start := time.Now()
				h.ServeHTTP(rec, req)
				lat := time.Since(start)
				tl.total++
				switch rec.status {
				case http.StatusOK:
					tl.ok++
					tl.latencies = append(tl.latencies, lat)
					if bytes.Contains(rec.body.Bytes(), []byte(`"degraded":true`)) {
						tl.degr++
					}
				case http.StatusTooManyRequests:
					tl.rejected++
				case http.StatusGatewayTimeout:
					tl.timeouts++
				default:
					// A cancelled run's tail requests fail arbitrarily;
					// don't count them against the service.
					if ctx.Err() == nil {
						tl.errs++
					} else {
						tl.total--
					}
				}
			}
		}(c)
	}
	wg.Wait()
	rep := WorkloadReport{Elapsed: time.Since(t0)}
	var all []time.Duration
	for i := range tallies {
		tl := &tallies[i]
		rep.Total += tl.total
		rep.OK += tl.ok
		rep.Rejected += tl.rejected
		rep.Timeouts += tl.timeouts
		rep.Errors += tl.errs
		rep.Degraded += tl.degr
		all = append(all, tl.latencies...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		rep.P50 = quantile(all, 50)
		rep.P95 = quantile(all, 95)
		rep.P99 = quantile(all, 99)
	}
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.Throughput = float64(rep.OK) / secs
	}
	return rep, nil
}

// quantile reads the p-th percentile off a sorted sample set (nearest
// rank).
func quantile(sorted []time.Duration, p int) time.Duration {
	i := (len(sorted)*p + 99) / 100
	if i < 1 {
		i = 1
	}
	return sorted[i-1]
}

func (r WorkloadReport) String() string {
	return fmt.Sprintf("total=%d ok=%d rejected=%d timeouts=%d errors=%d degraded=%d p50=%v p95=%v p99=%v %.0f req/s",
		r.Total, r.OK, r.Rejected, r.Timeouts, r.Errors, r.Degraded, r.P50, r.P95, r.P99, r.Throughput)
}
