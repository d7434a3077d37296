// Command pvcd is the long-running PVQL query service: it loads a demo
// database (the Figure 1 shop database or generated probabilistic
// TPC-H) and serves queries over HTTP with admission control and a
// prepared-statement plan cache.
//
// Usage:
//
//	pvcd -demo shop -p 0.5                  # Figure 1 database on :8080
//	pvcd -demo tpch -sf 0.001 -addr :9090   # probabilistic TPC-H
//	pvcd -store /data/tpch01                # disk-backed database (pvcimport)
//	pvcd -workers 4 -queue 8                # tighter admission budget
//
// Query it with any HTTP client:
//
//	curl -s localhost:8080/query -d '{"query":"SELECT shop, COUNT(*) AS n FROM S GROUP BY shop"}'
//	curl -s localhost:8080/query -d '{"query":"...","mode":"anytime","eps":0.05,"timeout_ms":500}'
//	curl -s localhost:8080/query -d '{"query":"EXPLAIN ANALYZE SELECT ...","trace":true}'
//	curl -s localhost:8080/stats
//	curl -s localhost:8080/metrics
//
// With -pprof-addr, the Go runtime profiles are served on a separate
// listener (keep it off the public interface):
//
//	pvcd -pprof-addr localhost:6060 &
//	go tool pprof localhost:6060/debug/pprof/profile?seconds=10
//
// The first SIGINT drains in-flight queries and exits; a second forces
// exit immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pvcagg"
	"pvcagg/internal/server"
	"pvcagg/internal/tpch"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		demo         = flag.String("demo", "shop", "demo database: shop or tpch")
		p            = flag.Float64("p", 0.5, "tuple marginal probability (shop demo)")
		sf           = flag.Float64("sf", 0.001, "TPC-H scale factor (tpch demo)")
		workers      = flag.Int("workers", 0, "concurrent query budget (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "admission queue depth beyond the workers (0 = 4×workers)")
		maxQueueWait = flag.Duration("max-queue-wait", time.Second, "longest a request queues before 429")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request execution deadline cap")
		degradeAfter = flag.Duration("degrade-after", 0, "queue wait beyond which non-exact requests degrade to anytime bounds (0 = max-queue-wait/4)")
		degradeEps   = flag.Float64("degrade-eps", 0.05, "anytime bound width for degraded requests")
		planCache    = flag.Int("plan-cache", 128, "prepared-statement plan cache entries")
		parallel     = flag.Int("parallel", 1, "per-query engine parallelism (0 = GOMAXPROCS)")
		storeDir     = flag.String("store", "", "serve a disk-backed database written by pvcimport instead of a -demo database")
		drainTimeout = flag.Duration("drain-timeout", 20*time.Second, "SIGTERM drain deadline for in-flight queries")
		retryBudget  = flag.Int("retry-budget", 256, "per-query retry budget for transient store read errors (negative disables retries)")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (off by default; bind to localhost)")
	)
	flag.Parse()

	var db *pvcagg.Database
	var health func() error
	var storeMetrics func() pvcagg.StoreMetrics
	served := *demo + " demo"
	if *storeDir != "" {
		st, err := pvcagg.OpenStore(*storeDir)
		if err != nil {
			log.Fatalf("pvcd: %v", err)
		}
		db = st.DB()
		health = st.Healthy
		storeMetrics = st.Metrics
		served = fmt.Sprintf("store %s (epoch %d)", *storeDir, st.Epoch())
	} else {
		var err error
		if db, err = buildDB(*demo, *p, *sf); err != nil {
			log.Fatalf("pvcd: %v", err)
		}
	}
	cfg := server.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		MaxQueueWait:  *maxQueueWait,
		MaxTimeout:    *timeout,
		DegradeAfter:  *degradeAfter,
		DegradeEps:    *degradeEps,
		PlanCacheSize: *planCache,
		Parallelism:   *parallel,
		Health:        health,
		StoreMetrics:  storeMetrics,
	}
	if *retryBudget >= 0 {
		// Bounded skips are on for the service: a block that is unreadable
		// after retries but provably contributes nothing degrades the
		// answer (degraded:true) instead of failing it.
		cfg.Retry = &pvcagg.RetryPolicy{Budget: *retryBudget, AllowBoundedSkip: true}
	}
	srv := server.New(db, cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	if *pprofAddr != "" {
		// Profiling lives on its own listener so the query port can be
		// exposed without also exposing heap dumps and CPU profiles. The
		// handlers are registered explicitly — the service mux never
		// inherits them via the DefaultServeMux side effect.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pvcd: pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("pvcd: pprof: %v", err)
			}
		}()
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		// Readiness flips first so load balancers stop routing here, then
		// Shutdown stops accepting and waits for in-flight queries under
		// the drain deadline.
		srv.BeginDrain()
		log.Println("pvcd: draining in-flight queries (interrupt again to force exit)")
		go func() {
			<-sigs
			log.Println("pvcd: forced exit")
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("pvcd: shutdown: %v", err)
		}
	}()

	log.Printf("pvcd: serving %s on %s", served, *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("pvcd: %v", err)
	}
}

func buildDB(demo string, p, sf float64) (*pvcagg.Database, error) {
	switch demo {
	case "shop":
		return shopDB(p), nil
	case "tpch":
		return tpch.Generate(tpch.Config{SF: sf, Seed: 1, Probabilistic: true})
	default:
		return nil, fmt.Errorf("unknown demo %q (want shop or tpch)", demo)
	}
}

// shopDB is the paper's Figure 1 running-example database with
// independent Boolean annotations at marginal p.
func shopDB(p float64) *pvcagg.Database {
	db := pvcagg.NewDatabase(pvcagg.Boolean)
	s := pvcagg.NewRelation("S", pvcagg.Schema{
		{Name: "sid", Type: pvcagg.TValue},
		{Name: "shop", Type: pvcagg.TString},
	})
	shops := []string{"M&S", "M&S", "M&S", "Gap", "Gap"}
	for i, shop := range shops {
		db.Registry.DeclareBool(fmt.Sprintf("x%d", i+1), p)
		s.MustInsert(pvcagg.MustParseExpr(fmt.Sprintf("x%d", i+1)),
			pvcagg.IntCell(int64(i+1)), pvcagg.StringCell(shop))
	}
	db.Add(s)
	ps := pvcagg.NewRelation("PS", pvcagg.Schema{
		{Name: "sid", Type: pvcagg.TValue},
		{Name: "pid", Type: pvcagg.TValue},
		{Name: "price", Type: pvcagg.TValue},
	})
	for _, row := range [][3]int64{
		{1, 1, 10}, {1, 2, 50}, {2, 1, 11}, {2, 2, 60}, {3, 3, 15},
		{3, 4, 40}, {4, 1, 15}, {4, 3, 60}, {5, 1, 10},
	} {
		v := fmt.Sprintf("y%d%d", row[0], row[1])
		db.Registry.DeclareBool(v, p)
		ps.MustInsert(pvcagg.MustParseExpr(v),
			pvcagg.IntCell(row[0]), pvcagg.IntCell(row[1]), pvcagg.IntCell(row[2]))
	}
	db.Add(ps)
	p1 := pvcagg.NewRelation("P1", pvcagg.Schema{
		{Name: "pid", Type: pvcagg.TValue},
		{Name: "weight", Type: pvcagg.TValue},
	})
	for i, row := range [][2]int64{{1, 4}, {2, 8}, {3, 7}, {4, 6}} {
		v := fmt.Sprintf("z%d", i+1)
		db.Registry.DeclareBool(v, p)
		p1.MustInsert(pvcagg.MustParseExpr(v), pvcagg.IntCell(row[0]), pvcagg.IntCell(row[1]))
	}
	db.Add(p1)
	p2 := pvcagg.NewRelation("P2", pvcagg.Schema{
		{Name: "pid", Type: pvcagg.TValue},
		{Name: "weight", Type: pvcagg.TValue},
	})
	db.Registry.DeclareBool("z5", p)
	p2.MustInsert(pvcagg.MustParseExpr("z5"), pvcagg.IntCell(1), pvcagg.IntCell(5))
	db.Add(p2)
	return db
}
