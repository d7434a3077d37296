package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// This file is the outside-in tracer of the traced run. The harness, not
// the program, opens a span around every call into a layer's public
// functions; spans stay in memory and are written out once at exit. A
// layer's self time is its spans' duration minus the part their child
// spans cover, so the self times of one op add up to the op's span.

// span is one timed call, or — for the per-tuple calls of step II, of
// which one op makes thousands — all calls of one layer under one parent:
// Calls counts them, Busy is the time spent inside them and [Start, End]
// reaches from the first call's start to the last call's end. Times are
// nanoseconds since the trace began. Source is "response" for spans the
// harness did not time itself but copied from the timings a pvcd
// response reports.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int    `json:"calls"`
	Source string `json:"source,omitempty"`

	resumed int64 // start of the call in progress
	closed  bool  // no call in progress
}

// tracer collects spans and layer counters of the traced passes.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	merged map[mergeKey]int // (parent, name) → span of a merged child
	counts map[string]float64
	maxes  map[string]float64
}

type mergeKey struct {
	parent int
	name   string
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), merged: map[mergeKey]int{}, counts: map[string]float64{}, maxes: map[string]float64{}}
}

// spanCtx is an open span: the handle through which children are opened.
type spanCtx struct {
	t  *tracer
	id int
}

func (t *tracer) open(name string, op, pass, parent int) *spanCtx {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Pass: pass, Start: now, End: now, resumed: now})
	t.mu.Unlock()
	return &spanCtx{t: t, id: id}
}

// root opens the span that covers one whole op.
func (t *tracer) root(op, pass int) *spanCtx { return t.open("op", op, pass, -1) }

// child opens a span under sp.
func (sp *spanCtx) child(name string) *spanCtx {
	sp.t.mu.Lock()
	p := sp.t.spans[sp.id]
	sp.t.mu.Unlock()
	return sp.t.open(name, p.Op, p.Pass, sp.id)
}

// end closes the span. Ending a span twice, or a nil span (a call the
// harness chose not to trace), is a no-op.
func (sp *spanCtx) end() {
	if sp == nil {
		return
	}
	now := time.Since(sp.t.t0).Nanoseconds()
	sp.t.mu.Lock()
	if s := &sp.t.spans[sp.id]; !s.closed {
		s.End = now
		s.Busy += now - s.resumed
		s.Calls++
		s.closed = true
	}
	sp.t.mu.Unlock()
}

// merged opens the child span of that name under sp again, or opens it
// if this is the first call: every call of one layer under one parent
// lands in one span.
func (sp *spanCtx) merged(name string) *spanCtx {
	t := sp.t
	t.mu.Lock()
	id, ok := t.merged[mergeKey{sp.id, name}]
	if ok {
		t.spans[id].resumed = time.Since(t.t0).Nanoseconds()
		t.spans[id].closed = false
	}
	t.mu.Unlock()
	if ok {
		return &spanCtx{t: t, id: id}
	}
	c := sp.child(name)
	t.mu.Lock()
	t.merged[mergeKey{sp.id, name}] = c.id
	t.mu.Unlock()
	return c
}

// reported records a child span of the given duration that the harness
// did not time: the program reported it (pvcd's response timings). The
// span is laid out at off nanoseconds after its parent's start.
func (sp *spanCtx) reported(name string, off, dur time.Duration) {
	sp.t.mu.Lock()
	p := sp.t.spans[sp.id]
	id := len(sp.t.spans)
	start := p.Start + off.Nanoseconds()
	sp.t.spans = append(sp.t.spans, span{ID: id, Parent: sp.id, Name: name, Op: p.Op, Pass: p.Pass,
		Start: start, End: start + dur.Nanoseconds(), Busy: dur.Nanoseconds(), Calls: 1, Source: "response", closed: true})
	sp.t.mu.Unlock()
}

// count adds v to a layer counter; peak keeps the maximum.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) peak(name string, v float64) {
	t.mu.Lock()
	if v > t.maxes[name] {
		t.maxes[name] = v
	}
	t.mu.Unlock()
}

// selfTimes sums, per span name, busy time minus the children's busy
// time. Children of one span never overlap here (every op is staged by
// one goroutine), so the children's sum is the part of the span they
// cover.
func (t *tracer) selfTimes() (self, total map[string]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.Busy
		}
	}
	self = map[string]time.Duration{}
	total = map[string]time.Duration{}
	for i, s := range t.spans {
		d := s.Busy
		total[s.Name] += time.Duration(d)
		if own := d - covered[i]; own > 0 {
			self[s.Name] += time.Duration(own)
		}
	}
	return self, total
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Ops      []string `json:"ops"` // op index → id
	Spans    []span   `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64, ops []op) error {
	tf := traceFile{Workload: workload, Seed: seed, Spans: t.spans}
	for _, o := range ops {
		tf.Ops = append(tf.Ops, o.id)
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
