package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// This file takes the machine's pulse. The benchmark runs on a shared
// two-core box whose speed moves by a fifth for minutes at a time (the
// same pass of the same binary: 1.06 s, an hour later 1.40 s, its CPU
// time up by the same share and no steal time reported — a neighbour on
// the host, not this process). No median over passes removes a slow
// quarter of an hour; ten runs of store-scan had ops_per_s 12.4 to 18.7.
//
// So every timed quantity is divided by how slow the machine was while
// it was taken. A pulse is a fixed kernel, under 2 ms of it, run on every
// core at once, between ops, every 30 ms or so. "On every core at once"
// is the point: what moves on this box is how much two busy cores get
// done together — the program always keeps both busy, if only with the
// garbage collector next to the op — and a kernel on one core with the
// other idle hardly notices (155 passes of store-scan: pass time against
// the one-core kernel correlates at 0.5, against the all-core kernel at
// 0.86; dividing by the one left a pass-to-pass spread of 8.2 % of 9.9 %,
// dividing by the other 4.4 %). Memory is not what moves: a pointer
// chase through 16 MB and a 4 MB stream did not correlate at all.
//
// The kernel is deliberately blind to what the program does: it sorts
// and multiplies inside a working set of 100 KB per core that it owns,
// while every client goroutine stands still. Parts that chased pointers
// through a megabyte or allocated ran 2× slower after a tpch-agg op than
// after a pvcd-mixed op — they measured the cache and heap state the
// program left behind, and a change to the program must not be able to
// move its own yardstick.

// pulseParts are the parts of a pulse, each timed on its own: two sorts
// of 10000 keys (branches, loads and stores in cache) and one 700 × 700
// float multiply-add (the convolution kernels' inner loop).
const pulseParts = 3

// pulseNominal is what each part takes, in ms, on the box the bounds
// were recorded on while it was quiet. It only fixes the unit: a machine
// twice as fast reports half the milliseconds with or without it.
var pulseNominal = pulse{0.66, 0.66, 0.34}

// pulseEvery is how long a client goroutine works between two pulses.
const pulseEvery = 30 * time.Millisecond

type pulse [pulseParts]float64 // ms per part

// pulseCore is one core's share of the kernel's working set, allocated
// once: a pulse allocates nothing, so the garbage collector has no part
// in it.
type pulseCore struct {
	keys    [2][]uint64
	scratch []uint64
	a, b, c []float64
	sink    uint64
	took    pulse
}

var pulseCores []*pulseCore

// initPulse sizes the kernel to the cores in use.
func initPulse() {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { // xorshift64*
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return x * 0x2545F4914F6CDD1D
	}
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		pc := &pulseCore{}
		for k := range pc.keys {
			pc.keys[k] = make([]uint64, 10000)
			for i := range pc.keys[k] {
				pc.keys[k][i] = next()
			}
		}
		pc.scratch = make([]uint64, len(pc.keys[0]))
		pc.a, pc.b, pc.c = make([]float64, 700), make([]float64, 700), make([]float64, 1400)
		for i := range pc.a {
			pc.a[i], pc.b[i] = float64(next()%1000)/1000, float64(next()%1000)/1000
		}
		pulseCores = append(pulseCores, pc)
	}
}

// run is the kernel on one core.
func (pc *pulseCore) run() {
	t0 := time.Now()
	lap := func(k int) {
		now := time.Now()
		pc.took[k] = ms(now.Sub(t0))
		t0 = now
	}
	for k := range pc.keys {
		copy(pc.scratch, pc.keys[k])
		slices.Sort(pc.scratch)
		pc.sink += pc.scratch[len(pc.scratch)/2]
		lap(k)
	}
	clear(pc.c)
	for i, av := range pc.a {
		for j, bv := range pc.b {
			pc.c[i+j] += av * bv
		}
	}
	pc.sink += uint64(pc.c[len(pc.c)/2])
	lap(2)
}

// takePulse runs the kernel on every core at once; a part's time is the
// mean over the cores. The first pulse of a process, taken before any
// pass, sets the kernel up (GOMAXPROCS is final by then).
func takePulse() pulse {
	if pulseCores == nil {
		initPulse()
	}
	var wg sync.WaitGroup
	for _, pc := range pulseCores[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc.run()
		}()
	}
	pulseCores[0].run()
	wg.Wait()
	var p pulse
	for _, pc := range pulseCores {
		for k, v := range pc.took {
			p[k] += v / float64(len(pulseCores))
		}
	}
	return p
}

// pulseLog collects the pulses taken during one timed stretch. Clients
// hold work for reading while they execute an op; a pulse takes it for
// writing, so it starts when every client has finished its op and no
// client starts another before it is done: the machine is the kernel's
// alone.
type pulseLog struct {
	work    sync.RWMutex
	samples []pulse
	stalled time.Duration // client time spent on pulses or waiting for one to end
	cpu     time.Duration // CPU time the kernels took
	mu      sync.Mutex    // guards stalled
}

// take runs one pulse and records it.
func (l *pulseLog) take() {
	t0 := time.Now()
	l.work.Lock()
	t1 := time.Now()
	l.samples = append(l.samples, takePulse())
	l.cpu += time.Since(t1) * time.Duration(len(pulseCores))
	l.work.Unlock()
	l.stall(time.Since(t0))
}

// stall books time a client could not work because of a pulse.
func (l *pulseLog) stall(d time.Duration) {
	l.mu.Lock()
	l.stalled += d
	l.mu.Unlock()
}

// median is the median time of each part over the logged pulses.
func (l *pulseLog) median() pulse {
	var m pulse
	col := make([]float64, len(l.samples))
	for k := range m {
		for i, p := range l.samples {
			col[i] = p[k]
		}
		m[k] = median(col)
	}
	return m
}

// slowness is how slow the machine was while the pulses were taken: the
// mean over the kernel's parts of median time ÷ nominal time. 1 is the
// nominal machine; durations divided by it are durations at nominal
// speed.
func (l *pulseLog) slowness() float64 {
	if len(l.samples) == 0 {
		return 1
	}
	s := 0.0
	for k, m := range l.median() {
		s += m / pulseNominal[k]
	}
	return s / pulseParts
}
