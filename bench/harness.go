package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// This file is the run protocol shared by every workload: a workload is
// a fixed, seeded list of K distinct ops (one pass); a run sets up,
// warms up with one pass and then repeats the pass until the measuring
// time is spent. Work per pass is fixed, so every statistic is a median
// over passes of the same work, never a rate over whatever happened to
// fit into a time window.

// workload is one named benchmark workload. setup builds a fresh
// instance from the seed; dir is an empty scratch directory inside the
// checkout that the instance may fill and must leave to the caller to
// remove.
type workload struct {
	name  string
	why   string
	setup func(seed int64, dir string) (*instance, error)
}

// row is one answer tuple in canonical form: the constant cells as the
// engine renders them, the confidence interval, and the expectation of
// each aggregation column.
type row struct {
	Cells  []string
	Lo, Hi float64
	Aggs   []float64
}

// answer is what one op returned. extra carries whatever the workload's
// verifier needs beyond the rows (e.g. the step-I relation for the
// possible-worlds oracle); the harness never looks at it.
type answer struct {
	rows  []row
	extra any
}

// digest hashes the canonical form of an answer: cells verbatim,
// probabilities rounded to 1e-9, aggregate expectations to ten
// significant digits (they reach 1e10, so an absolute 1e-9 is below
// float64 resolution).
func (a *answer) digest() string {
	h := sha256.New()
	for _, r := range a.rows {
		fmt.Fprintf(h, "%s\x1e%.9f\x1e%.9f", strings.Join(r.Cells, "\x1f"), r.Lo, r.Hi)
		for _, v := range r.Aggs {
			fmt.Fprintf(h, "\x1e%.10g", v)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// op is one operation of a pass.
type op struct {
	// id names the op; it is a pure function of the seed and the op's
	// position in the workload's grid, and keys the golden digests.
	id string
	// exact marks ops whose answer is fully determined by the paper's
	// semantics (exact probabilities): their digest must not change
	// between passes, runs or commits. Anytime and sample answers are
	// only checked for containment, because any sound interval is right.
	exact bool
	// unstable marks ops whose digest may differ between two passes of
	// one run although every answer is right (see pvcd-mixed).
	unstable bool
	// run executes the op through the public facade with default
	// options except the mode the op names.
	run func(ctx context.Context, pass int) (*answer, error)
	// stage executes the same op with the harness calling each layer's
	// public functions itself and recording a span around every call.
	stage func(ctx context.Context, pass int, sp *spanCtx) (*answer, error)
}

// instance is a workload after set-up.
type instance struct {
	ops []op
	// clients is the number of goroutines that pull ops of a pass from
	// a shared cursor: 1 runs the pass sequentially, 2 is the closed
	// loop of pvcd-mixed.
	clients int
	// order, when set, is the order in which a pass hands out the ops
	// (a permutation of their indices); nil is the order of ops.
	order func(pass int) []int
	// notes are echoed above the result line (what the numbers include).
	notes []string
	// layer holds per-layer values known after set-up (ingest rate,
	// bytes on disk, open time).
	layer map[string]float64
	// verify checks the answers of the last measured pass against
	// references independent of the measured path and returns one
	// message per failing op index.
	verify func(ctx context.Context, last []*answer) map[int]string
	// traced, when set, adds per-layer values that only the instance
	// can read after the traced passes (server /stats, a raw full scan).
	traced func(ctx context.Context, t *tracer) error
	close  func() error
}

// shutdown releases what set-up acquired (store handles, the server).
func (inst *instance) shutdown() error {
	if inst.close == nil {
		return nil
	}
	return inst.close()
}

// passResult is the outcome of one pass. Durations are as the clock gave
// them, less what the pulses took; nominal converts them to the nominal
// machine's (see calib.go).
type passResult struct {
	wall    time.Duration
	lat     []time.Duration
	answers []*answer
	errs    []error
	cpu     time.Duration
	alloc   uint64
	peakRSS float64 // MB; resident-set high-water mark of this pass
	slow    float64 // how slow the machine was during the pass; 1 = nominal
	pulses  int
	pulse   pulse // median pulse of the pass, ms per part
}

// nominal is d in milliseconds on the nominal machine.
func (pr *passResult) nominal(d time.Duration) float64 { return ms(d) / pr.slow }

// runPass executes every op once. Per-op latency covers the op's call
// only. Between ops, every pulseEvery of work, each client goroutine
// takes the machine's pulse while the others stand still; what the
// pulses cost in time and CPU is taken out of the pass's totals (they
// allocate nothing).
func runPass(ctx context.Context, inst *instance, pass int, t *tracer) passResult {
	n := len(inst.ops)
	pr := passResult{lat: make([]time.Duration, n), answers: make([]*answer, n), errs: make([]error, n)}
	var order []int
	if inst.order != nil {
		order = inst.order(pass)
	}
	var pulses pulseLog
	runtime.GC() // outside the timed region: every pass starts from the live heap
	resetPeakRSS()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	cpu0 := cpuTime()
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < inst.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pulses.take()
			lastPulse := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if order != nil {
					i = order[i]
				}
				o := &inst.ops[i]
				w0 := time.Now()
				pulses.work.RLock()
				s0 := time.Now()
				if t != nil {
					sp := t.root(i, pass)
					pr.answers[i], pr.errs[i] = o.stage(ctx, pass, sp)
					sp.end()
				} else {
					pr.answers[i], pr.errs[i] = o.run(ctx, pass)
				}
				now := time.Now()
				pulses.work.RUnlock()
				pr.lat[i] = now.Sub(s0)
				pulses.stall(s0.Sub(w0)) // held up by another client's pulse
				// One pulse per pulseEvery worked, at most three at once:
				// a long op is sampled as densely as many short ones.
				for due := min(int(now.Sub(lastPulse)/pulseEvery), 3); due > 0; due-- {
					pulses.take()
					lastPulse = time.Now()
				}
			}
		}()
	}
	wg.Wait()
	// A client that takes a pulse, or waits for one to end, is not
	// working through the pass: with c clients the pass ends stalled/c
	// later than it would have.
	pr.wall = time.Since(t0) - pulses.stalled/time.Duration(inst.clients)
	pr.cpu = cpuTime() - cpu0 - pulses.cpu
	runtime.ReadMemStats(&mem)
	pr.alloc = mem.TotalAlloc - alloc0
	pr.peakRSS = peakRSSMB()
	pr.slow = pulses.slowness()
	pr.pulses, pr.pulse = len(pulses.samples), pulses.median()
	return pr
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so that each pass has a peak of its own and the
// reported one can be their median: a maximum over the whole run is an
// extreme value and repeats badly (29 to 43 MB over ten runs of
// store-scan). Where /proc/self/clear_refs cannot be written, the mark
// keeps rising and every pass reports the peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// quantile is the linearly interpolated q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opMedians is each op's median latency across the passes, in ms: a
// noisy neighbour's stall lands in one pass of one op and the median
// drops it, while the spread across distinct ops — how slow a slow
// query is — survives into the percentiles taken over these K values.
func opMedians(passes []passResult) []float64 {
	if len(passes) == 0 {
		return nil
	}
	k := len(passes[0].lat)
	out := make([]float64, k)
	col := make([]float64, len(passes))
	for i := 0; i < k; i++ {
		for p := range passes {
			col[p] = passes[p].nominal(passes[p].lat[i])
		}
		out[i] = median(col)
	}
	return out
}

// setupPulses is how many pulses are taken before and after a set-up,
// which is one opaque call and cannot be sampled from inside.
const setupPulses = 5

// setupRun is one set-up repetition: build the instance and run the
// warm-up pass, so lazily initialised state is paid for here and not in
// the first measured pass. It returns the time this took, in seconds on
// the nominal machine.
func setupRun(ctx context.Context, w *workload, seed int64, dir string) (*instance, float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	var pulses pulseLog
	for i := 0; i < setupPulses; i++ {
		pulses.take()
	}
	t0 := time.Now()
	inst, err := w.setup(seed, dir)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up of %s: %w", w.name, err)
	}
	build := time.Since(t0)
	for i := 0; i < setupPulses; i++ {
		pulses.take()
	}
	warm := runPass(ctx, inst, -1, nil)
	return inst, build.Seconds()/pulses.slowness() + warm.nominal(warm.wall)/1000, nil
}
