package server

import (
	"context"
	"flag"
	"testing"
	"time"

	"pvcagg/internal/benchx"
)

// The workload-driver smoke: the benchx driver runs a mixed-mode client
// fleet against the service handler for a bounded wall-clock window and
// the run must stay clean — successes, 429s and timeouts only, latency
// percentiles populated. CI's service job runs this with
// -workload-smoke=30s; the default keeps `go test` fast locally.

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

func TestWorkloadDriverSmoke(t *testing.T) {
	s := New(shopDB(0.5), Config{Workers: 2, QueueDepth: 4, MaxQueueWait: 100 * time.Millisecond, DegradeAfter: 10 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), *workloadSmoke)
	defer cancel()
	rep, err := benchx.RunWorkload(ctx, s.Handler(), benchx.WorkloadConfig{
		Clients: 8,
		Seed:    1,
		Bodies:  mixedWorkloadBodies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("workload: %v", rep)
	if rep.OK == 0 {
		t.Fatal("no request succeeded")
	}
	if rep.Errors > 0 {
		t.Errorf("%d responses were neither success, 429 nor timeout", rep.Errors)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Errorf("malformed latency percentiles: p50=%v p99=%v", rep.P50, rep.P99)
	}
	if got := rep.OK + rep.Rejected + rep.Timeouts; got != rep.Total {
		t.Errorf("outcome counts %d do not add up to %d issued requests", got, rep.Total)
	}
}
