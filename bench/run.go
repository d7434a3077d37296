package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median, so one slow ingest does not decide it.
const setupReps = 3

// minPasses is the fewest measured passes a run accepts; the time budget
// normally yields seven or more.
const minPasses = 3

// e2eMetric is one end-to-end metric; bound is the share by which it may
// get worse before a change counts as a regression.
type e2eMetric struct {
	name, unit, better string
	bound              float64
}

// endToEnd is the list BENCHMARK.json's end_to_end repeats: the same
// seven on every workload.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"op_ms_p50", "ms", "lower", 0.20},
	{"op_ms_p90", "ms", "lower", 0.15},
	{"cpu_ms_per_op", "ms", "lower", 0.15},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

type runConfig struct {
	seed    int64
	seconds float64
	// regolden skips the comparison with the goldens: -update is about
	// to replace them.
	regolden bool
	dataDir  string // scratch for on-disk state, removed by the caller
	outDir   string // where the traced run writes trace-<workload>.json
}

// runReport is everything one untraced run measured.
type runReport struct {
	w        *workload
	ops      []op
	notes    []string
	setups   []float64 // seconds, one per set-up repetition
	passes   []passResult
	opMed    []float64 // per-op median latency across passes, ms
	digests  []string  // per-op digest (first pass that answered)
	failed   int       // op executions that failed
	failures []string
	metrics  map[string]metricValue
}

//go:embed golden/*.json
var goldenFS embed.FS

// golden is the layout of golden/<workload>.json: the digest of every
// exact op at one seed.
type golden struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

func loadGolden(workload string) *golden {
	b, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return nil
	}
	var g golden
	if json.Unmarshal(b, &g) != nil {
		return nil
	}
	return &g
}

// runMeasured is the untraced run: set-up (repeated), one warm-up pass,
// measured passes for cfg.seconds, then the correctness checks.
func runMeasured(ctx context.Context, w *workload, cfg runConfig) (*runReport, error) {
	rep := &runReport{w: w}
	var inst *instance
	for r := 0; r < setupReps; r++ {
		if inst != nil {
			if err := inst.shutdown(); err != nil {
				return nil, err
			}
		}
		var (
			d   float64
			err error
		)
		inst, d, err = setupRun(ctx, w, cfg.seed, filepath.Join(cfg.dataDir, fmt.Sprint("s", r)))
		if err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, d)
	}
	defer inst.shutdown()
	rep.ops, rep.notes = inst.ops, inst.notes
	k := len(inst.ops)

	rep.digests = make([]string, k)
	failedExec := make([]int, k)
	reason := make([]string, k)
	var last []*answer
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for p := 0; ; p++ {
		pr := runPass(ctx, inst, p, nil)
		for i := range pr.answers {
			if pr.errs[i] != nil {
				failedExec[i]++
				reason[i] = pr.errs[i].Error()
				continue
			}
			d := pr.answers[i].digest()
			switch {
			case rep.digests[i] == "":
				rep.digests[i] = d
			case d != rep.digests[i] && !inst.ops[i].unstable:
				failedExec[i]++
				reason[i] = fmt.Sprintf("digest %s in pass %d, %s before", d, p, rep.digests[i])
			}
		}
		last = pr.answers
		pr.answers = nil
		rep.passes = append(rep.passes, pr)
		// Stop when another pass would overshoot the budget by more than
		// stopping now undershoots it.
		if len(rep.passes) >= minPasses && time.Since(start)+pr.wall/2 >= budget {
			break
		}
	}
	np := len(rep.passes)

	// An op that fails a check failed every time it ran.
	fail := func(i int, msg string) {
		failedExec[i] = np
		reason[i] = msg
	}
	if g := loadGolden(w.name); g != nil && g.Seed == cfg.seed && !cfg.regolden {
		for i, o := range inst.ops {
			if want, ok := g.Digests[o.id]; ok && o.exact && rep.digests[i] != "" && rep.digests[i] != want {
				fail(i, fmt.Sprintf("digest %s, golden %s", rep.digests[i], want))
			}
		}
	}
	answered := true
	for _, a := range last {
		answered = answered && a != nil
	}
	if inst.verify != nil && answered {
		for i, msg := range inst.verify(ctx, last) {
			fail(i, msg)
		}
	}
	for i, n := range failedExec {
		if n > 0 {
			rep.failed += n
			rep.failures = append(rep.failures, fmt.Sprintf("op %d (%s): %s", i, inst.ops[i].id, reason[i]))
		}
	}
	sort.Strings(rep.failures)
	rep.opMed = opMedians(rep.passes)
	rep.computeMetrics()
	return rep, nil
}

// computeMetrics derives the seven end-to-end metrics.
func (rep *runReport) computeMetrics() {
	k := float64(len(rep.ops))
	np := float64(len(rep.passes))
	var walls, rss []float64
	var cpu float64
	var alloc uint64
	for _, p := range rep.passes {
		walls = append(walls, p.nominal(p.wall)/1000)
		rss = append(rss, p.peakRSS)
		cpu += p.nominal(p.cpu)
		alloc += p.alloc
	}
	med := append([]float64(nil), rep.opMed...)
	values := map[string]float64{
		"setup_s":         median(append([]float64(nil), rep.setups...)),
		"ops_per_s":       k / median(walls),
		"op_ms_p50":       quantile(med, 0.5),
		"op_ms_p90":       quantile(med, 0.9),
		"cpu_ms_per_op":   cpu / (k * np),
		"alloc_mb_per_op": float64(alloc) / (1 << 20) / (k * np),
		"peak_rss_mb":     median(rss),
	}
	rep.metrics = map[string]metricValue{}
	for _, m := range endToEnd {
		rep.metrics[m.name] = metricValue{values[m.name], m.unit}
	}
}

// cliffLimit is how far apart the two per-op medians around a percentile
// position may be. A percentile that sits between two clusters of op
// cost jumps from one to the other when noise reorders two ops.
const cliffLimit = 0.20

// minSamples is the fewest timed samples (K·P) a percentile may rest on.
const minSamples = 180

// cliffs reports what is wrong with the percentiles of this run: an
// empty slice means op_ms_p50 and op_ms_p90 rest on enough samples and
// on a spread-out cost distribution.
func (rep *runReport) cliffs() []string {
	var out []string
	if n := len(rep.ops) * len(rep.passes); n < minSamples {
		out = append(out, fmt.Sprintf("%d timed samples back the percentiles, fewer than %d", n, minSamples))
	}
	xs := append([]float64(nil), rep.opMed...)
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9} {
		pos := q * float64(len(xs)-1)
		lo := int(math.Floor(pos))
		// The ranks just below and just above the position; when the
		// position is a rank itself, its neighbours on both sides.
		pairs := [][2]int{{lo, lo + 1}}
		if pos == float64(lo) {
			pairs = append(pairs, [2]int{lo - 1, lo})
		}
		for _, p := range pairs {
			if p[0] < 0 || p[1] >= len(xs) {
				continue
			}
			if gap := xs[p[1]]/xs[p[0]] - 1; gap > cliffLimit {
				out = append(out, fmt.Sprintf("p%.0f sits on a cliff: ranks %d and %d of %d are %.3f and %.3f ms, %.0f%% apart",
					100*q, p[0]+1, p[1]+1, len(xs), xs[p[0]], xs[p[1]], 100*gap))
			}
		}
	}
	return out
}

// result prints the run's details and returns its last line.
func (rep *runReport) result() *result {
	for _, n := range rep.notes {
		fmt.Println("note:", n)
	}
	walls := make([]float64, len(rep.passes))
	speeds := make([]float64, len(rep.passes))
	for i, p := range rep.passes {
		walls[i], speeds[i] = p.wall.Seconds(), p.slow
	}
	fmt.Printf("K=%d ops, P=%d measured passes, pass wall s as clocked: %.3f\n", len(rep.ops), len(rep.passes), walls)
	fmt.Printf("machine slowness per pass (1 = nominal; every time below is divided by it; %d pulses per pass): %.3f\n", rep.passes[0].pulses, speeds)
	var parts [pulseParts][]float64
	for _, p := range rep.passes {
		for k, v := range p.pulse {
			parts[k] = append(parts[k], v)
		}
	}
	rss := make([]float64, len(rep.passes))
	for i, p := range rep.passes {
		rss[i] = p.peakRSS
	}
	fmt.Printf("peak RSS per pass, MB: %.1f\n", rss)
	fmt.Printf("median pulse, ms per part (nominal %.2f):", pulseNominal)
	for k := range parts {
		fmt.Printf(" %.3f", median(parts[k]))
	}
	fmt.Println()
	fmt.Printf("set-up s on the nominal machine (x%d): %.3f\n", len(rep.setups), rep.setups)
	for _, c := range rep.cliffs() {
		fmt.Println("CLIFF", c)
	}
	for i, f := range rep.failures {
		if i == 10 {
			fmt.Printf("FAILED ... and %d more ops\n", len(rep.failures)-i)
			break
		}
		fmt.Println("FAILED", f)
	}
	return &result{
		Correct:   rep.failed == 0,
		Attempted: len(rep.ops) * len(rep.passes),
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
}

// printOps lists the ops by median latency: the distribution the
// percentiles are taken over.
func (rep *runReport) printOps() {
	idx := make([]int, len(rep.ops))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return rep.opMed[idx[a]] < rep.opMed[idx[b]] })
	for rank, i := range idx {
		fmt.Printf("  #%-3d %9.3f ms  %s\n", rank+1, rep.opMed[i], rep.ops[i].id)
	}
}
