package server

import (
	"context"
	"flag"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pvcagg/internal/gen"
)

// The workload-driver smoke: a mixed-mode client fleet runs against the
// service handler for a bounded wall-clock window and the run must stay
// clean — successes, 429s and timeouts only. CI's service job runs this
// with -workload-smoke=30s; the default keeps `go test` fast locally.

var workloadSmoke = flag.Duration("workload-smoke", 2*time.Second, "wall-clock budget for the workload-driver smoke test")

// mixedWorkloadBodies is the standard request mix: exact and anytime on
// both the tractable and the hard query, a seeded sampling request, and
// one tight deadline to exercise the timeout path.
func mixedWorkloadBodies() []string {
	return []string{
		`{"query":"SELECT shop, COUNT(*) AS n FROM S GROUP BY shop","mode":"exact"}`,
		`{"query":"SELECT shop, COUNT(*) AS n FROM S GROUP BY shop","mode":"sample","seed":7,"samples":500}`,
		`{"query":"SELECT shop FROM (SELECT shop, MAX(price) AS P FROM (SELECT shop, price FROM S JOIN PS JOIN (SELECT * FROM P1 UNION SELECT * FROM P2)) GROUP BY shop) WHERE P <= 50","mode":"anytime","eps":0.1}`,
		`{"query":"SELECT shop FROM (SELECT shop, MAX(price) AS P FROM (SELECT shop, price FROM S JOIN PS JOIN (SELECT * FROM P1 UNION SELECT * FROM P2)) GROUP BY shop) WHERE P <= 50","timeout_ms":1}`,
	}
}

// tally counts a workload's responses: 200s (and how many of them the
// server degraded to anytime bounds), 429s, 504s, and anything else.
type tally struct{ ok, degraded, rejected, timeouts, errors int }

func (n tally) total() int { return n.ok + n.rejected + n.timeouts + n.errors }

// drive runs eight clients against h until ctx ends, client i posting
// to /query the bodies a stream seeded i+1 draws uniformly. A request the
// end of the run cuts short is not counted.
func drive(ctx context.Context, h http.Handler, bodies []string) tally {
	var (
		mu  sync.Mutex
		sum tally
		wg  sync.WaitGroup
	)
	for c := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			for ctx.Err() == nil {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, http.MethodPost, "/query", strings.NewReader(bodies[rng.Intn(len(bodies))])))
				mu.Lock()
				switch {
				case rec.Code == http.StatusOK:
					sum.ok++
					if strings.Contains(rec.Body.String(), `"degraded":true`) {
						sum.degraded++
					}
				case rec.Code == http.StatusTooManyRequests:
					sum.rejected++
				case rec.Code == http.StatusGatewayTimeout:
					sum.timeouts++
				case ctx.Err() == nil:
					sum.errors++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return sum
}

func TestWorkloadDriverSmoke(t *testing.T) {
	s := New(gen.Figure1(0.5), Config{Workers: 2, QueueDepth: 4, MaxQueueWait: 100 * time.Millisecond, DegradeAfter: 10 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), *workloadSmoke)
	defer cancel()
	rep := drive(ctx, s.Handler(), mixedWorkloadBodies())
	t.Logf("workload: %+v", rep)
	if rep.ok == 0 {
		t.Fatal("no request succeeded")
	}
	if rep.errors > 0 {
		t.Errorf("%d responses were neither success, 429 nor timeout", rep.errors)
	}
}
