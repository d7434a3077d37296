package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// tracedPasses is how many passes the traced run stages.
const tracedPasses = 3

// layerMetric is one per-layer metric of the traced run. Every workload
// reports every one of them; a layer that does nothing on a workload
// reports 0, which is the prediction ("no change") a later change to
// that layer must meet there.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics is the list BENCHMARK.json's per_layer repeats.
var layerMetrics = []layerMetric{
	{"pvql.parse_us_per_op", "us", "lower"},
	{"bind.bind_us_per_op", "us", "lower"},
	{"opt.optimize_us_per_op", "us", "lower"},
	{"tractable.classify_us_per_op", "us", "lower"},
	{"engine.step1_ms_per_op", "ms", "lower"},
	{"engine.rows_out_per_op", "count", "lower"},
	{"engine.step2_ms_per_op", "ms", "lower"},
	{"store.rows_read_per_op", "count", "lower"},
	{"store.blocks_read_per_op", "count", "lower"},
	{"store.blocks_skipped_per_op", "count", "higher"},
	{"store.bytes_read_per_op", "B", "lower"},
	{"store.skip_ratio", "ratio", "higher"},
	{"store.fullscan_mb_per_s", "MB/s", "higher"},
	{"store.ingest_rows_per_s", "1/s", "higher"},
	{"store.disk_bytes_per_row", "B", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"compile.compile_ms_per_op", "ms", "lower"},
	{"compile.nodes_per_op", "count", "lower"},
	{"compile.shannon_per_op", "count", "lower"},
	{"compile.memo_hit_ratio", "ratio", "higher"},
	{"dtree.eval_ms_per_op", "ms", "lower"},
	{"dtree.node_evals_per_op", "count", "lower"},
	{"dtree.max_dist_size", "count", "lower"},
	{"approx.ms_per_op", "ms", "lower"},
	{"approx.expansions_per_op", "count", "lower"},
	{"approx.converged_ratio", "ratio", "higher"},
	{"approx.wasted_node_ratio", "ratio", "lower"},
	{"worlds.sample_ms_per_op", "ms", "lower"},
	{"server.queue_wait_ms_per_op", "ms", "lower"},
	{"server.parse_ms_per_op", "ms", "lower"},
	{"server.exec_ms_per_op", "ms", "lower"},
	{"server.overhead_ms_per_op", "ms", "lower"},
	{"server.plan_cache_hit_ratio", "ratio", "higher"},
	{"server.resp_bytes_per_op", "B", "lower"},
	{"server.rejected", "count", "lower"},
	{"server.degraded", "count", "lower"},
	{"share.frontend", "ratio", "lower"},
	{"share.engine_step1", "ratio", "lower"},
	{"share.step2", "ratio", "lower"},
	{"share.server_overhead", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.unattributed_ratio", "ratio", "lower"},
}

// runTraced is the traced run: one set-up, a warm-up pass, one untraced
// pass as the reference, then tracedPasses passes in which every op is
// staged by the harness under spans. Its result carries the per-layer
// metrics; end-to-end metrics always come from the untraced run.
func runTraced(ctx context.Context, w *workload, cfg runConfig) (*result, error) {
	inst, _, err := setupRun(ctx, w, cfg.seed, filepath.Join(cfg.dataDir, "t"))
	if err != nil {
		return nil, err
	}
	defer inst.shutdown()
	k := len(inst.ops)
	ref := runPass(ctx, inst, 0, nil)
	t := newTracer()
	failed := map[int]string{}
	for i, err := range ref.errs {
		if err != nil {
			failed[i] = err.Error()
		}
	}
	var walls, slows []float64
	for p := 1; p <= tracedPasses; p++ { // pass 0 was the reference: pvcd-mixed's cold texts must stay new
		pr := runPass(ctx, inst, p, t)
		walls = append(walls, pr.nominal(pr.wall)/1000)
		slows = append(slows, pr.slow)
		for i := range pr.answers {
			switch {
			case pr.errs[i] != nil:
				failed[i] = pr.errs[i].Error()
			case inst.ops[i].unstable || ref.answers[i] == nil:
			case pr.answers[i].digest() != ref.answers[i].digest():
				failed[i] = fmt.Sprintf("staged digest %s differs from the facade's %s", pr.answers[i].digest(), ref.answers[i].digest())
			}
		}
	}
	if inst.traced != nil {
		if err := inst.traced(ctx, t); err != nil {
			return nil, err
		}
	}
	for _, n := range inst.notes {
		fmt.Println("note:", n)
	}
	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := t.write(path, w.name, cfg.seed, inst.ops); err != nil {
		return nil, err
	}
	fmt.Printf("K=%d ops, %d traced passes (wall s %.3f), untraced reference pass %.3f s, %d spans in %s\n",
		k, tracedPasses, walls, ref.wall.Seconds(), len(t.spans), path)

	n := float64(k * tracedPasses)
	self, total := t.selfTimes()
	vals := layerValues(t, self, total, inst, n, n*median(slows), median(walls), ref.nominal(ref.wall)/1000)
	printSelfTimes(self, total)
	keys := make([]int, 0, len(failed))
	for i := range failed {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	for _, i := range keys {
		fmt.Printf("FAILED op %d (%s): %s\n", i, inst.ops[i].id, failed[i])
	}
	res := &result{Correct: len(failed) == 0, Attempted: k * tracedPasses, Failed: len(failed) * tracedPasses, Metrics: map[string]metricValue{}}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	return res, nil
}

// layerValues turns spans and counters into the per-layer metrics. n is
// the number of staged op executions, nt the same times the machine's
// slowness during the traced passes: spans hold times as clocked, the
// per-op times reported are the nominal machine's.
func layerValues(t *tracer, self, total map[string]time.Duration, inst *instance, n, nt, tracedWall, untracedWall float64) map[string]float64 {
	c := t.counts
	v := map[string]float64{}
	usPerOp := func(name string) float64 { return float64(total[name].Microseconds()) / nt }
	msPerOp := func(name string) float64 { return ms(total[name]) / nt }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["pvql.parse_us_per_op"] = usPerOp("pvql.parse")
	v["bind.bind_us_per_op"] = usPerOp("bind.bind")
	v["opt.optimize_us_per_op"] = usPerOp("opt.optimize")
	v["tractable.classify_us_per_op"] = usPerOp("tractable.classify")
	v["engine.step1_ms_per_op"] = msPerOp("engine.step1")
	v["engine.rows_out_per_op"] = c["engine.rows_out"] / n
	v["engine.step2_ms_per_op"] = msPerOp("engine.step2")
	v["store.rows_read_per_op"] = c["store.rows_read"] / n
	v["store.blocks_read_per_op"] = c["store.blocks_read"] / n
	v["store.blocks_skipped_per_op"] = c["store.blocks_skipped"] / n
	v["store.bytes_read_per_op"] = c["store.bytes_read"] / n
	v["store.skip_ratio"] = ratio(c["store.blocks_skipped"], c["store.blocks_skipped"]+c["store.blocks_read"])
	v["compile.compile_ms_per_op"] = msPerOp("compile.compile")
	v["compile.nodes_per_op"] = c["compile.nodes"] / n
	v["compile.shannon_per_op"] = c["compile.shannon"] / n
	v["compile.memo_hit_ratio"] = ratio(c["compile.memo_hits"], c["compile.memo_hits"]+c["compile.nodes"])
	v["dtree.eval_ms_per_op"] = msPerOp("dtree.eval")
	v["dtree.node_evals_per_op"] = c["dtree.node_evals"] / n
	v["dtree.max_dist_size"] = t.maxes["dtree.max_dist_size"]
	v["approx.ms_per_op"] = msPerOp("approx.approximate")
	v["approx.expansions_per_op"] = c["approx.expansions"] / n
	v["approx.converged_ratio"] = ratio(c["approx.converged"], c["approx.calls"])
	v["approx.wasted_node_ratio"] = ratio(c["approx.wasted_nodes"], c["approx.total_nodes"])
	v["worlds.sample_ms_per_op"] = msPerOp("worlds.sample")
	v["server.queue_wait_ms_per_op"] = msPerOp("server.queue_wait")
	v["server.parse_ms_per_op"] = msPerOp("server.parse")
	v["server.exec_ms_per_op"] = msPerOp("server.exec")
	v["server.overhead_ms_per_op"] = ms(self["server.http"]) / nt
	v["server.plan_cache_hit_ratio"] = ratio(c["server.plan_hits"], c["server.requests"])
	v["server.resp_bytes_per_op"] = c["server.resp_bytes"] / n
	v["server.rejected"] = c["server.rejected"]
	v["server.degraded"] = c["server.degraded"]

	// Shares are self time over the time of all op spans. On pvcd-mixed
	// the library layers come from the in-process replay of each slot,
	// the server layers from the HTTP round trip; see README.md.
	ops := float64(total["op"])
	share := func(names ...string) float64 {
		var d time.Duration
		for _, name := range names {
			d += self[name]
		}
		return ratio(float64(d), ops)
	}
	v["share.frontend"] = share("pvql.parse", "bind.bind", "opt.optimize", "tractable.classify")
	v["share.engine_step1"] = share("engine.step1")
	v["share.step2"] = share("compile.compile", "dtree.eval", "approx.approximate", "worlds.sample")
	v["share.server_overhead"] = share("server.http")
	v["trace.overhead_ratio"] = tracedWall/untracedWall - 1
	v["trace.unattributed_ratio"] = share("op")
	for name, x := range inst.layer {
		v[name] = x
	}
	return v
}

// printSelfTimes lists each layer's self time, largest first.
func printSelfTimes(self, total map[string]time.Duration) {
	names := make([]string, 0, len(self))
	for n := range total {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("layer self time over the traced passes (share of all op spans):")
	for _, n := range names {
		fmt.Printf("  %-22s self %10.1f ms  total %10.1f ms  %5.1f%%\n", n, ms(self[n]), ms(total[n]), 100*float64(self[n])/float64(total["op"]))
	}
}
