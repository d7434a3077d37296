// Command bench is this repository's benchmark: four fixed-work
// workloads, seven end-to-end metrics on each, and a traced run that
// attributes time to layers from outside. See README.md.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>   one run, result as the last line
//	bench -all                                                    every workload, untraced then traced
//	bench -selfcheck                                              cliff check + noise self-test
//	bench -update                                                 rewrite golden/<workload>.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// workloads lists the four workloads; later issues cite these names.
var workloads = []*workload{
	{name: "expr-exact", setup: exprExact(exprParams),
		why: "step II (compile, d-tree, distributions) does all the work; PVQL, step I, store and server do none"},
	{name: "tpch-agg", setup: tpchAgg(tpchAggSF),
		why: "the whole library path PVQL to optimizer to in-memory step I to step II over many result tuples; store and server idle"},
	{name: "store-scan", setup: storeScan(storeScanSF),
		why: "disk scans and step-I iterators do the work (set-up is the ingest path); annotations are One, so step II is trivial"},
	{name: "pvcd-mixed", setup: pvcdMixed(pvcdSF),
		why: "HTTP to PVQL to optimizer to store-backed step I to step II to JSON in a closed loop; server, plan cache and encoding matter only here"},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// defaultSeconds is BENCHMARK.json's run_seconds: with passes of one to
// two seconds it yields seven to sixteen measured passes.
const defaultSeconds = 18

// printSpec renders BENCHMARK.json from the tables of this package, so
// the file and the program cannot drift apart (a test compares them).
func printSpec() {
	fmt.Print("{\n", `  "command": ["bash", "bench/run.sh"],`, "\n", `  "paths": ["bench"],`, "\n")
	fmt.Printf("  \"run_seconds\": %d,\n  \"workloads\": [\n", defaultSeconds)
	for i, w := range workloads {
		fmt.Printf("    {\"name\": %q, \"why\": %q}%s\n", w.name, w.why, comma(i, len(workloads)))
	}
	fmt.Print("  ],\n  \"end_to_end\": [\n")
	for i, m := range endToEnd {
		fmt.Printf("    {\"name\": %q, \"unit\": %q, \"better\": %q, \"bound\": %g}%s\n", m.name, m.unit, m.better, m.bound, comma(i, len(endToEnd)))
	}
	fmt.Print("  ],\n  \"per_layer\": [\n")
	for i, m := range layerMetrics {
		fmt.Printf("    {\"name\": %q, \"unit\": %q, \"better\": %q}%s\n", m.name, m.unit, m.better, comma(i, len(layerMetrics)))
	}
	fmt.Print("  ]\n}\n")
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: expr-exact, tpch-agg, store-scan or pvcd-mixed")
		seed      = flag.Int64("seed", 1, "seed of the input generators")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long the measured passes run")
		trace     = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		all       = flag.Bool("all", false, "run every workload, untraced then traced, and print every metric")
		selfcheck = flag.Bool("selfcheck", false, "cliff check and noise self-test over every workload")
		update    = flag.Bool("update", false, "rewrite golden/<workload>.json for -seed")
		dir       = flag.String("dir", ".bench_build", "directory (inside the checkout) for scratch data")
		ops       = flag.Bool("ops", false, "also list every op with its median latency")
		out       = flag.String("out", filepath.Join("bench", "out"), "directory for trace-<workload>.json")
		cliff     = flag.Bool("cliff", false, "exit with code 3 if a percentile sits on a cliff or on too few samples")
		goldenDir = flag.String("golden", filepath.Join("bench", "golden"), "directory -update writes to")
		spec      = flag.Bool("spec", false, "print BENCHMARK.json as this package defines it")
	)
	flag.Parse()
	// The box has 2 cores; capping at 4 keeps runs on a bigger box
	// comparable with the recorded ones.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)

	ctx := context.Background()
	switch {
	case *spec:
		printSpec()
		return
	case *all:
		os.Exit(runAll(ctx, *seed, *seconds, *dir, *out))
	case *selfcheck:
		os.Exit(runSelfcheck(ctx, *seed, *seconds, *dir, *out))
	case *update:
		os.Exit(runUpdate(ctx, *seed, *dir, *goldenDir))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d GOGC=%d\n", w.name, *seed, *seconds, *trace, procs, gogc)
	cfg := runConfig{seed: *seed, seconds: *seconds, dataDir: filepath.Join(*dir, "data", fmt.Sprintf("%s-%d", w.name, os.Getpid())), outDir: *out}
	var (
		res    *result
		err    error
		cliffs []string
	)
	if *trace != 0 {
		res, err = runTraced(ctx, w, cfg)
	} else {
		var rep *runReport
		rep, err = runMeasured(ctx, w, cfg)
		if err == nil {
			res = rep.result()
			cliffs = rep.cliffs()
			if *ops {
				rep.printOps()
			}
		}
	}
	os.RemoveAll(cfg.dataDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printMetrics(res)
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if *cliff && len(cliffs) > 0 {
		os.Exit(3)
	}
}

// printMetrics lists the metrics by name with their units, sorted.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
