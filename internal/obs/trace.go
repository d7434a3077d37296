// Package obs is the dependency-free observability layer: execution
// traces (nested spans with wall time) and a
// process-wide metrics registry with Prometheus text exposition. What a
// query counted lives in its report, not in its spans.
//
// Every type is nil-safe: methods on a nil *Trace or nil *Span are
// no-ops, so instrumented code stays linear and calls them
// unconditionally. A query executed without WithTrace never allocates a
// span, never reads the clock and never touches a mutex.
package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// Trace collects the spans of one query execution. It is carried by
// value through option structs and by pointer through contexts; all
// methods are safe for concurrent use (step-II probability workers may
// touch sibling spans concurrently) and safe on a nil receiver.
type Trace struct {
	mu    sync.Mutex
	spans []*Span
}

// NewTrace returns an empty trace ready to be passed to an execution.
func NewTrace() *Trace { return &Trace{} }

// Span is one timed stage of an execution: a name, wall-clock duration
// and child spans. The duration is captured at End.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	dur      time.Duration
	done     bool
	children []*Span
}

// StartSpan opens a new top-level span on the trace. Returns nil (a
// no-op span) when the trace is nil.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, name: name, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// StartSpan opens a child span. Returns nil when the receiver is nil.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: time.Now()}
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// End stamps the span's wall time. Idempotent; no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.done {
		s.done = true
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the wall time stamped by End (0 on nil or before
// End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.dur
}

// SpanView is the immutable JSON shape of one span.
type SpanView struct {
	Name       string     `json:"name"`
	DurationUS int64      `json:"duration_us"`
	Children   []SpanView `json:"children,omitempty"`
}

func (s *Span) viewLocked() SpanView {
	v := SpanView{Name: s.name, DurationUS: s.dur.Microseconds()}
	for _, c := range s.children {
		v.Children = append(v.Children, c.viewLocked())
	}
	return v
}

// Spans returns a deep snapshot of the trace's span tree; safe to read
// without further locking. Nil traces return nil.
func (t *Trace) Spans() []SpanView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanView, 0, len(t.spans))
	for _, s := range t.spans {
		out = append(out, s.viewLocked())
	}
	return out
}

// MarshalJSON renders the trace as {"spans": [...]}.
func (t *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Spans []SpanView `json:"spans"`
	}{t.Spans()})
}

// Render returns an indented text rendering of the span tree for CLI
// output: one line per span with its duration.
func (t *Trace) Render() string {
	if t == nil {
		return ""
	}
	var b []byte
	for _, v := range t.Spans() {
		b = renderSpan(b, v, 0)
	}
	return string(b)
}

func renderSpan(b []byte, v SpanView, depth int) []byte {
	for range depth {
		b = append(b, "  "...)
	}
	b = append(b, v.Name...)
	b = append(b, ' ')
	b = append(b, time.Duration(v.DurationUS*int64(time.Microsecond)).String()...)
	b = append(b, '\n')
	for _, c := range v.Children {
		b = renderSpan(b, c, depth+1)
	}
	return b
}
