package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	s := tr.StartSpan("exec")
	if s != nil {
		t.Fatalf("nil trace StartSpan = %v, want nil", s)
	}
	c := s.StartSpan("child")
	c.End()
	if got := c.Duration(); got != 0 {
		t.Fatalf("nil span Duration = %v, want 0", got)
	}
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil trace Spans = %v, want nil", got)
	}
	if got := tr.Render(); got != "" {
		t.Fatalf("nil trace Render = %q, want empty", got)
	}
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace()
	exec := tr.StartSpan("exec")
	eval := exec.StartSpan("eval")
	eval.End()
	first := eval.Duration()
	exec.End()
	eval.End() // idempotent
	if got := eval.Duration(); got != first {
		t.Fatalf("second End moved the duration from %v to %v", first, got)
	}

	views := tr.Spans()
	if len(views) != 1 || views[0].Name != "exec" {
		t.Fatalf("top-level spans = %+v, want one named exec", views)
	}
	kids := views[0].Children
	if len(kids) != 1 || kids[0].Name != "eval" {
		t.Fatalf("children = %+v, want eval", kids)
	}
	if eval.Duration() <= 0 {
		t.Fatal("ended span must have a positive duration")
	}

	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"name":"eval"`) {
		t.Fatalf("trace JSON missing eval span: %s", raw)
	}
	text := tr.Render()
	if !strings.Contains(text, "exec ") || !strings.Contains(text, "\n  eval ") {
		t.Fatalf("Render missing a span or its nesting:\n%s", text)
	}
	// A span carries its name and wall time, nothing else.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if f := strings.Fields(line); len(f) != 2 {
			t.Errorf("Render line %q, want a name and a duration", line)
		}
	}
	var spans struct{ Spans []map[string]any }
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	for key := range spans.Spans[0] {
		if key != "name" && key != "duration_us" && key != "children" {
			t.Errorf("span JSON has field %q", key)
		}
	}
}

// TestTraceConcurrent exercises sibling spans opened and ended from
// many goroutines; run under -race in CI.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	root := tr.StartSpan("root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				root.StartSpan("worker").End()
			}
		}()
	}
	done := make(chan struct{})
	go func() { // concurrent reader
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Spans()
			time.Sleep(time.Microsecond)
		}
	}()
	wg.Wait()
	<-done
	root.End()
	if got := len(tr.Spans()[0].Children); got != 800 {
		t.Fatalf("children = %d, want 800", got)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pvcd_requests_total", "Total requests.")
	c.Add(5)
	c.Add(-3) // ignored: counters are monotone
	g := r.Gauge("pvcd_inflight_queries", "In-flight queries.")
	g.Set(2)
	r.CounterFunc("pvcd_errors_total", "Errors.", func() int64 { return 7 })
	r.CounterFunc(`pvcd_cache_events_total{event="hit"}`, "Cache events.", func() int64 { return 3 })
	r.CounterFunc(`pvcd_cache_events_total{event="miss"}`, "Cache events.", func() int64 { return 4 })
	h := r.Histogram("pvcd_exec_seconds", "Execution latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE pvcd_requests_total counter",
		"pvcd_requests_total 5",
		"# TYPE pvcd_inflight_queries gauge",
		"pvcd_inflight_queries 2",
		"pvcd_errors_total 7",
		`pvcd_cache_events_total{event="hit"} 3`,
		`pvcd_cache_events_total{event="miss"} 4`,
		"# TYPE pvcd_exec_seconds histogram",
		`pvcd_exec_seconds_bucket{le="0.1"} 1`,
		`pvcd_exec_seconds_bucket{le="1"} 2`,
		`pvcd_exec_seconds_bucket{le="+Inf"} 3`,
		"pvcd_exec_seconds_sum 5.55",
		"pvcd_exec_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE header per base name even with two labelled series.
	if got := strings.Count(out, "# TYPE pvcd_cache_events_total counter"); got != 1 {
		t.Errorf("cache_events TYPE header count = %d, want 1", got)
	}
	// Non-histogram series must be sorted by name (histogram expansion
	// lines are ordered by bucket bound, not lexicographically).
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var series []string
	for _, l := range lines {
		if !strings.HasPrefix(l, "#") && !strings.Contains(l, "_bucket{") &&
			!strings.Contains(l, "_sum ") && !strings.Contains(l, "_count ") {
			series = append(series, l)
		}
	}
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			t.Errorf("series out of order: %q after %q", series[i], series[i-1])
		}
	}
	// Idempotent registration returns the same instrument.
	if r.Counter("pvcd_requests_total", "Total requests.").Value() != 5 {
		t.Error("re-registering a counter must return the existing instrument")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different kind must panic")
		}
	}()
	r.Gauge("m_total", "")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name must panic")
		}
	}()
	r.Counter("9bad-name", "")
}

// TestRegistryConcurrentPublish is the registry race test: many
// goroutines registering, publishing and scraping at once.
func TestRegistryConcurrentPublish(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("conc_events_total", "")
			g := r.Gauge("conc_level", "")
			h := r.Histogram("conc_seconds", "", nil)
			for j := 0; j < 200; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) / 100)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_events_total", "").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := r.Histogram("conc_seconds", "", nil).Count(); got != 1600 {
		t.Fatalf("histogram count = %d, want 1600", got)
	}
}
