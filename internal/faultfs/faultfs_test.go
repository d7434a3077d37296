package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func write(t *testing.T, fsys FS, path string, data []byte) error {
	t.Helper()
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func TestPassThrough(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS(), Plan{})
	p := filepath.Join(dir, "a")
	if err := write(t, in, p, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	f, err := in.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "hello" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := in.ReadFile(p); err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if st := in.Stats(); st.Injected != 0 || st.Ops == 0 {
		t.Errorf("stats = %+v, want ops counted and nothing injected", st)
	}
}

func TestFailNth(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "f")
	if err := write(t, OS(), base, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	var plan Plan
	plan.FailNth[OpRead] = 2
	plan.Transient = true
	in := NewInjector(OS(), plan)
	f, err := in.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	_, err = f.ReadAt(buf, 4)
	if err == nil {
		t.Fatal("read 2 did not fail")
	}
	if !errors.Is(err, ErrInjected) || !IsTransient(err) {
		t.Fatalf("read 2 error %v: want transient injected", err)
	}
	if _, err := f.ReadAt(buf, 4); err != nil {
		t.Fatalf("read 3 (after the Nth): %v", err)
	}
}

func TestFailProbDeterministic(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	if err := write(t, OS(), p, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	run := func() []bool {
		var plan Plan
		plan.FailProb[OpRead] = 0.5
		plan.Seed = 42
		in := NewInjector(OS(), plan)
		f, err := in.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		outcomes := make([]bool, 64)
		buf := make([]byte, 1)
		for i := range outcomes {
			_, err := f.ReadAt(buf, 0)
			outcomes[i] = err != nil
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("non-injected failure: %v", err)
			}
		}
		return outcomes
	}
	a, b := run(), run()
	failures := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probabilistic stream not reproducible at op %d", i)
		}
		if a[i] {
			failures++
		}
	}
	if failures == 0 || failures == len(a) {
		t.Errorf("p=0.5 injected %d/%d failures — stream looks degenerate", failures, len(a))
	}
}

func TestShortWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS(), Plan{ShortWriteNth: 1})
	p := filepath.Join(dir, "torn")
	err := write(t, in, p, []byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write error = %v", err)
	}
	data, rerr := os.ReadFile(p)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(data) != "01234" {
		t.Errorf("torn write left %q on disk, want the first half", data)
	}
	if st := in.Stats(); st.Torn != 1 {
		t.Errorf("Torn = %d, want 1", st.Torn)
	}
}

func TestCrashMode(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS(), Plan{CrashNth: 2})
	if err := write(t, in, filepath.Join(dir, "a"), []byte("aaaa")); err != nil {
		t.Fatalf("write before the kill point: %v", err)
	}
	err := write(t, in, filepath.Join(dir, "b"), []byte("bbbb"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("write at the kill point = %v, want ErrCrashed", err)
	}
	// The torn half of the crashing write reached disk; nothing after
	// the crash does.
	if data, _ := os.ReadFile(filepath.Join(dir, "b")); string(data) != "bb" {
		t.Errorf("crashing write left %q, want the torn first half", data)
	}
	if err := write(t, in, filepath.Join(dir, "c"), []byte("c")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash = %v, want ErrCrashed", err)
	}
	if err := in.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "a2")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename after crash = %v, want ErrCrashed", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "c")); !errors.Is(err, os.ErrNotExist) {
		t.Error("file created after the crash point reached disk")
	}
}

func TestConcurrentInjector(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	if err := write(t, OS(), p, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	var plan Plan
	plan.FailProb[OpRead] = 0.1
	plan.Transient = true
	in := NewInjector(OS(), plan)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := in.Open(p)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			buf := make([]byte, 2)
			for i := 0; i < 200; i++ {
				if _, err := f.ReadAt(buf, 0); err != nil && !errors.Is(err, ErrInjected) {
					t.Errorf("unexpected error: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if st := in.Stats(); st.Injected == 0 {
		t.Error("no faults injected across 1600 raced reads at p=0.1")
	}
}
