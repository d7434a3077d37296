package server

import (
	"context"
	"flag"
	"testing"
	"time"

	"pvcagg"
	"pvcagg/internal/algebra"
	"pvcagg/internal/faultfs"
	"pvcagg/internal/gen"
	"pvcagg/internal/store"
	"pvcagg/internal/testutil"
)

// The chaos soak: the full service stack — HTTP handler, admission
// control, engine, disk-backed store — runs a mixed workload over a store
// opened through a faultfs injector that fails 1% of block reads
// transiently. The run must stay clean: the process survives (zero
// panics), no goroutine leaks, and every response is a correct result, a
// sound degraded one, or a typed rejection/timeout; and it must show
// that faults were injected and retried. CI's chaos job runs this with
// -chaos-soak=30s; the default keeps `go test` fast locally.

var chaosSoak = flag.Duration("chaos-soak", 2*time.Second, "wall-clock budget for the fault-injected service soak")

// chaosStore materializes the Figure 1 shop database into an on-disk
// store (fault-free), so the soak's scans go through the real block-read
// path the injector faults.
func chaosStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db := gen.Figure1(0.5)
	w, err := store.Create(dir, algebra.Boolean, db.Registry, store.Options{BlockCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range db.Names() {
		rel, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		tw, err := w.CreateTable(name, rel.Schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range rel.Tuples {
			if err := tw.Append(tup.Ann, tup.Cells...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestChaosSoak(t *testing.T) {
	checkLeaks := testutil.CheckGoroutines(t)
	dir := chaosStore(t)

	// Every read through the opened store runs under the injector: 1% of
	// reads fail transiently, from a fixed seed.
	plan := faultfs.Plan{Seed: 7, Transient: true}
	plan.FailProb[faultfs.OpRead] = 0.01
	in := faultfs.NewInjector(faultfs.OS(), plan)
	st, err := store.OpenFS(dir, in)
	if err != nil {
		t.Fatal(err)
	}
	s := New(st.Database(), Config{
		Workers:      2,
		QueueDepth:   8,
		MaxQueueWait: 100 * time.Millisecond,
		DegradeAfter: 10 * time.Millisecond,
		Retry:        &pvcagg.RetryPolicy{Budget: 256, AllowBoundedSkip: true},
		Health:       st.Healthy,
	})

	ctx, cancel := context.WithTimeout(context.Background(), *chaosSoak)
	defer cancel()
	rep := drive(ctx, s.Handler(), mixedWorkloadBodies())
	t.Logf("chaos soak: %+v; injector %+v; %d retries", rep, in.Stats(), s.m.retries.Value())

	if rep.ok == 0 {
		t.Fatal("no request succeeded under 1% read faults")
	}
	// The soak proves something only if faults fired and were retried.
	if st := in.Stats(); st.Injected == 0 {
		t.Errorf("injector stats %+v: no fault injected", st)
	}
	if got := s.m.retries.Value(); got == 0 {
		t.Error("no store read was retried during the soak")
	}
	// Zero deaths: every injected fault was retried, soundly degraded, or
	// surfaced as a typed error — never a panic.
	if got := s.m.panics.Value(); got != 0 {
		t.Errorf("%d panics during the soak, want 0", got)
	}
	// Bounded error rate: with transient faults at 1% and 4 attempts per
	// read, a request should essentially never fail terminally. Allow 1%
	// of the issued requests as slack before calling it a regression.
	if limit := rep.total()/100 + 1; rep.errors > limit {
		t.Errorf("%d of %d requests failed terminally, want <= %d", rep.errors, rep.total(), limit)
	}
	checkLeaks()
}
