// Package faultfs is the fault-injection seam under the storage engine:
// a minimal filesystem abstraction (FS/File) that the store's open,
// read and write paths go through, plus an Injector that wraps any FS
// with a deterministic fault plan — error on the Nth operation of a
// class, probabilistic transient faults from a seeded stream, torn
// (short) writes, and a crash mode that tears the in-flight write and
// fails every operation after it, simulating SIGKILL for on-disk state.
//
// Injected errors wrap ErrInjected and carry a Transient marker, so the
// store's retry classifier (store.IsTransient) can distinguish a blip
// worth retrying from permanent damage. Faults reach the store only
// through this seam: a test builds an Injector and passes it to
// store.OpenFS or store.CreateFS; store.Open and store.Create use OS().
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// File is the slice of *os.File the storage engine uses.
type File interface {
	io.ReaderAt
	io.Writer
	io.Closer
}

// FS is the filesystem seam: every file operation the store performs.
type FS interface {
	Open(name string) (File, error)
	Create(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	MkdirAll(path string, perm os.FileMode) error
	Stat(name string) (os.FileInfo, error)
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) Create(name string) (File, error) { return os.Create(name) }
func (osFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(name)
}
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

// OS returns the real, fault-free filesystem.
func OS() FS { return osFS{} }

// Op classifies filesystem operations for fault targeting.
type Op int

const (
	OpOpen Op = iota
	OpCreate
	OpRead  // ReadAt on an open file, and whole-file ReadFile
	OpWrite // Write on an open file, and whole-file WriteFile
	OpClose
	OpRename
	OpStat
	numOps
)

func (o Op) String() string {
	switch o {
	case OpOpen:
		return "open"
	case OpCreate:
		return "create"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpClose:
		return "close"
	case OpRename:
		return "rename"
	case OpStat:
		return "stat"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// ErrInjected is the sentinel every injected fault wraps, so tests can
// errors.Is an observed failure back to the injector.
var ErrInjected = fmt.Errorf("faultfs: injected fault")

// ErrCrashed is the error every operation returns after the injector's
// crash point: the process is "dead" as far as the filesystem is
// concerned, and nothing it does after the kill point reaches disk.
var ErrCrashed = fmt.Errorf("faultfs: crashed (operations after the kill point do not reach disk): %w", ErrInjected)

// FaultError is one injected fault. Transient faults model blips (EINTR,
// a controller hiccup) worth retrying; permanent ones model real damage.
type FaultError struct {
	Op        Op
	Path      string
	Transient bool
}

func (e *FaultError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("faultfs: injected %s %s fault on %s", kind, e.Op, e.Path)
}

func (e *FaultError) Unwrap() error { return ErrInjected }

// IsTransient reports whether err is (or wraps) a transient injected
// fault. Permanent injected faults and real errors report false.
func IsTransient(err error) bool {
	var fe *FaultError
	return errors.As(err, &fe) && fe.Transient
}

// Plan is one fault schedule. The zero value injects nothing.
type Plan struct {
	// FailNth[op], when > 0, fails the Nth operation of that class
	// (1-based, counted per injector). A write counts toward FailNth and
	// FailProb only when ShortWriteNth and CrashNth leave it whole.
	FailNth [numOps]int64
	// FailProb[op], when > 0, fails each operation of that class with
	// the given probability, drawn from the Seed-determined stream.
	FailProb [numOps]float64
	// Seed determines the probabilistic fault stream; runs with the same
	// plan and operation sequence inject the same faults.
	Seed uint64
	// Transient marks injected FailNth/FailProb faults as transient
	// (retry-worthy) instead of permanent.
	Transient bool
	// ShortWriteNth, when > 0, makes the Nth write a torn write: half the
	// buffer reaches the file, then the write fails. Models a crash or
	// disk-full mid-write.
	ShortWriteNth int64
	// CrashNth, when > 0, "kills the process" at the Nth write: that
	// write is torn (half the bytes land) and every later operation of
	// any class fails with ErrCrashed. On-disk state is whatever the
	// earlier operations left, exactly like SIGKILL.
	CrashNth int64
}

// Stats counts what an injector saw and did.
type Stats struct {
	Ops      int64 // operations passed through or faulted
	Injected int64 // faults injected (all kinds)
	Torn     int64 // short writes performed
	Writes   int64 // writes attempted before a crash, the crashing one included
}

// Injector wraps an FS with a fault Plan. Safe for concurrent use; all
// counters are under one mutex (fault injection is for tests and chaos
// runs, not hot paths).
type Injector struct {
	base FS
	plan Plan

	mu      sync.Mutex
	opCount [numOps]int64
	rng     uint64
	crashed bool
	stats   Stats
}

// NewInjector wraps base with the given plan.
func NewInjector(base FS, plan Plan) *Injector {
	seed := plan.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Injector{base: base, plan: plan, rng: seed}
}

// Stats snapshots the injector's counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// next is splitmix64: a deterministic uniform stream from the seed.
func (in *Injector) next() uint64 {
	in.rng += 0x9E3779B97F4A7C15
	z := in.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// decide charges one operation of class op against the plan and returns
// the injected error, if any. Called with the mutex held.
func (in *Injector) decide(op Op, path string) error {
	in.stats.Ops++
	if in.crashed {
		in.stats.Injected++
		return ErrCrashed
	}
	in.opCount[op]++
	n := in.opCount[op]
	if want := in.plan.FailNth[op]; want > 0 && n == want {
		in.stats.Injected++
		return &FaultError{Op: op, Path: path, Transient: in.plan.Transient}
	}
	if p := in.plan.FailProb[op]; p > 0 {
		if float64(in.next()>>11)/(1<<53) < p {
			in.stats.Injected++
			return &FaultError{Op: op, Path: path, Transient: in.plan.Transient}
		}
	}
	return nil
}

// before charges one non-write operation against the plan.
func (in *Injector) before(op Op, path string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.decide(op, path)
}

// writeDecision resolves the fate of one write: pass, torn (write half,
// then fail with the returned error), or fail outright.
func (in *Injector) writeDecision(path string) (torn bool, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		in.stats.Injected++
		return false, ErrCrashed
	}
	in.stats.Writes++
	if in.plan.CrashNth > 0 && in.stats.Writes == in.plan.CrashNth {
		in.crashed = true
		in.stats.Injected++
		in.stats.Torn++
		return true, ErrCrashed
	}
	if in.plan.ShortWriteNth > 0 && in.stats.Writes == in.plan.ShortWriteNth {
		in.stats.Injected++
		in.stats.Torn++
		return true, &FaultError{Op: OpWrite, Path: path, Transient: in.plan.Transient}
	}
	return false, in.decide(OpWrite, path)
}

func (in *Injector) Open(name string) (File, error) {
	if err := in.before(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := in.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{in: in, f: f, name: name}, nil
}

func (in *Injector) Create(name string) (File, error) {
	if err := in.before(OpCreate, name); err != nil {
		return nil, err
	}
	f, err := in.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{in: in, f: f, name: name}, nil
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	if err := in.before(OpRead, name); err != nil {
		return nil, err
	}
	return in.base.ReadFile(name)
}

func (in *Injector) WriteFile(name string, data []byte, perm os.FileMode) error {
	torn, ferr := in.writeDecision(name)
	if torn {
		_ = in.base.WriteFile(name, data[:len(data)/2], perm)
		return ferr
	}
	if ferr != nil {
		return ferr
	}
	return in.base.WriteFile(name, data, perm)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if err := in.before(OpRename, newpath); err != nil {
		return err
	}
	return in.base.Rename(oldpath, newpath)
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	// Directory creation is not a faultable class: the plan targets the
	// data path. (Crash mode still applies — nothing reaches disk.)
	in.mu.Lock()
	crashed := in.crashed
	in.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return in.base.MkdirAll(path, perm)
}

func (in *Injector) Stat(name string) (os.FileInfo, error) {
	if err := in.before(OpStat, name); err != nil {
		return nil, err
	}
	return in.base.Stat(name)
}

// file wraps an open File with the injector's read/write/close faults.
type file struct {
	in   *Injector
	f    File
	name string
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	if err := f.in.before(OpRead, f.name); err != nil {
		return 0, err
	}
	return f.f.ReadAt(p, off)
}

func (f *file) Write(p []byte) (int, error) {
	torn, ferr := f.in.writeDecision(f.name)
	if torn {
		n, _ := f.f.Write(p[:len(p)/2])
		return n, ferr
	}
	if ferr != nil {
		return 0, ferr
	}
	return f.f.Write(p)
}

func (f *file) Close() error {
	// An injected close failure still closes the file, as the kernel
	// releases the fd even when close reports an error.
	if err := f.in.before(OpClose, f.name); err != nil {
		f.f.Close()
		return err
	}
	return f.f.Close()
}
