// Package faultfs is the fault-injection seam under the storage engine:
// a minimal filesystem abstraction (FS/File) that the store's open,
// read and write paths go through, plus an Injector that wraps any FS
// with a deterministic fault plan — error on the Nth operation of a
// class, probabilistic transient faults from a seeded stream, torn
// (short) writes, latency stalls, file-descriptor exhaustion, and a
// crash mode that tears the in-flight write and fails every operation
// after it, simulating SIGKILL for on-disk state.
//
// Injected errors wrap ErrInjected and carry a Transient marker, so the
// store's retry classifier (store.IsTransient) can distinguish a blip
// worth retrying from permanent damage. The injector is activated
// explicitly in tests, or process-wide through the hidden PVC_FAULTFS
// environment knob (see FromEnv) that the CI chaos job uses to run the
// whole binary under injected faults without code changes.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
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

// ParseOp parses an Op name as used in the PVC_FAULTFS spec.
func ParseOp(s string) (Op, error) {
	for o := Op(0); o < numOps; o++ {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("faultfs: unknown op %q", s)
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
	// (1-based, counted per injector) and every ShortWriteNth below it.
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
	// Stall delays every operation, modelling a slow or contended disk.
	Stall time.Duration
	// MaxOpenFiles, when > 0, bounds concurrently open files; Open and
	// Create beyond the bound fail, modelling fd exhaustion. Injected
	// fd-exhaustion faults are transient (closing files clears them).
	MaxOpenFiles int
}

// Stats counts what an injector saw and did.
type Stats struct {
	Ops      int64 // operations passed through or faulted
	Injected int64 // faults injected (all kinds)
	Torn     int64 // short writes performed
}

// Injector wraps an FS with a fault Plan. Safe for concurrent use; all
// counters are under one mutex (fault injection is for tests and chaos
// runs, not hot paths).
type Injector struct {
	base FS
	plan Plan

	mu      sync.Mutex
	opCount [numOps]int64
	writes  int64
	rng     uint64
	crashed bool
	open    int
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

// before runs the shared prologue: stall, then the plan decision.
func (in *Injector) before(op Op, path string) error {
	if in.plan.Stall > 0 {
		time.Sleep(in.plan.Stall)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.decide(op, path)
}

// acquireFD charges one open file against MaxOpenFiles.
func (in *Injector) acquireFD(op Op, path string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.plan.MaxOpenFiles > 0 && in.open >= in.plan.MaxOpenFiles {
		in.stats.Injected++
		return fmt.Errorf("%w: %s %s: too many open files", &FaultError{Op: op, Path: path, Transient: true}, op, path)
	}
	in.open++
	return nil
}

func (in *Injector) releaseFD() {
	in.mu.Lock()
	in.open--
	in.mu.Unlock()
}

// writeDecision resolves the fate of one write: pass, torn (write half,
// then fail with the returned error), or fail outright.
func (in *Injector) writeDecision(path string) (torn bool, err error) {
	if in.plan.Stall > 0 {
		time.Sleep(in.plan.Stall)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		in.stats.Injected++
		return false, ErrCrashed
	}
	in.writes++
	if in.plan.CrashNth > 0 && in.writes == in.plan.CrashNth {
		in.crashed = true
		in.stats.Injected++
		in.stats.Torn++
		return true, ErrCrashed
	}
	if in.plan.ShortWriteNth > 0 && in.writes == in.plan.ShortWriteNth {
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
	if err := in.acquireFD(OpOpen, name); err != nil {
		return nil, err
	}
	f, err := in.base.Open(name)
	if err != nil {
		in.releaseFD()
		return nil, err
	}
	return &file{in: in, f: f, name: name}, nil
}

func (in *Injector) Create(name string) (File, error) {
	if err := in.before(OpCreate, name); err != nil {
		return nil, err
	}
	if err := in.acquireFD(OpCreate, name); err != nil {
		return nil, err
	}
	f, err := in.base.Create(name)
	if err != nil {
		in.releaseFD()
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
	in     *Injector
	f      File
	name   string
	closed bool
	mu     sync.Mutex
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
	f.mu.Lock()
	wasClosed := f.closed
	f.closed = true
	f.mu.Unlock()
	if !wasClosed {
		f.in.releaseFD()
	}
	// Close faults are injected after the fd bookkeeping: an injected
	// close failure must not leak the slot (the kernel releases the fd
	// even when close reports an error).
	if err := f.in.before(OpClose, f.name); err != nil {
		f.f.Close()
		return err
	}
	return f.f.Close()
}

// FromEnv returns the FS selected by the named environment variable: the
// real filesystem when unset, or an injector over it configured by a
// comma-separated spec. This is the hidden chaos knob — not a documented
// flag — that lets CI run any binary under injected faults.
//
// Spec grammar (all parts optional, comma-separated):
//
//	<op>:nth=<N>        fail the Nth <op> (open|create|read|write|close|rename|stat)
//	<op>:p=<float>      fail each <op> with probability p
//	seed=<N>            seed for the probabilistic stream (default 1)
//	transient           injected faults are transient (retryable)
//	shortwrite=<N>      tear the Nth write
//	crash=<N>           crash at the Nth write (torn, then everything fails)
//	stall=<duration>    delay every operation
//	maxfd=<N>           bound concurrently open files
//
// Example: PVC_FAULTFS="read:p=0.01,seed=7,transient"
func FromEnv(key string) (FS, *Injector, error) {
	spec := os.Getenv(key)
	if spec == "" {
		return OS(), nil, nil
	}
	plan, err := ParsePlan(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("faultfs: %s: %w", key, err)
	}
	in := NewInjector(OS(), plan)
	return in, in, nil
}

// count parses a whole spec value as a count: decimal digits only (no
// sign, no trailing bytes) of a number that fits in bits bits.
func count(val string, bits int) (uint64, bool) {
	n, err := strconv.ParseUint(val, 10, bits)
	return n, err == nil
}

// ParsePlan parses the FromEnv spec grammar into a Plan. Every value is
// parsed whole: a count is a non-negative decimal, p a number in [0, 1],
// a stall a non-negative duration.
func ParsePlan(spec string) (Plan, error) {
	var plan Plan
	plan.Seed = 1
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "transient" {
			plan.Transient = true
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Plan{}, fmt.Errorf("bad spec part %q (want key=value or transient)", part)
		}
		switch {
		case key == "seed":
			n, ok := count(val, 64)
			if !ok {
				return Plan{}, fmt.Errorf("bad seed %q", val)
			}
			plan.Seed = n
		case key == "shortwrite":
			n, ok := count(val, 63)
			if !ok {
				return Plan{}, fmt.Errorf("bad shortwrite %q", val)
			}
			plan.ShortWriteNth = int64(n)
		case key == "crash":
			n, ok := count(val, 63)
			if !ok {
				return Plan{}, fmt.Errorf("bad crash %q", val)
			}
			plan.CrashNth = int64(n)
		case key == "stall":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return Plan{}, fmt.Errorf("bad stall %q", val)
			}
			plan.Stall = d
		case key == "maxfd":
			n, ok := count(val, strconv.IntSize-1)
			if !ok {
				return Plan{}, fmt.Errorf("bad maxfd %q", val)
			}
			plan.MaxOpenFiles = int(n)
		case strings.Contains(key, ":"):
			opName, mode, _ := strings.Cut(key, ":")
			op, err := ParseOp(opName)
			if err != nil {
				return Plan{}, err
			}
			switch mode {
			case "nth":
				n, ok := count(val, 63)
				if !ok {
					return Plan{}, fmt.Errorf("bad %s:nth %q", op, val)
				}
				plan.FailNth[op] = int64(n)
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || math.IsNaN(p) {
					return Plan{}, fmt.Errorf("bad %s:p %q", op, val)
				}
				if p < 0 || p > 1 {
					return Plan{}, fmt.Errorf("%s:p %v out of [0,1]", op, p)
				}
				plan.FailProb[op] = p
			default:
				return Plan{}, fmt.Errorf("bad op spec %q (want %s:nth or %s:p)", key, opName, opName)
			}
		default:
			return Plan{}, fmt.Errorf("unknown spec key %q", key)
		}
	}
	return plan, nil
}
