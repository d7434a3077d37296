package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"

	"pvcagg/internal/faultfs"
)

// ErrPartial is the sentinel wrapped by every *PartialError: a query
// could not read part of the store even after exhausting its retry
// budget, and the unreadable part is not provably boundable, so no
// sound answer — exact or anytime — exists.
var ErrPartial = errors.New("store: partial failure (unreadable data after retries)")

// PartialError locates the data a query had to give up on.
type PartialError struct {
	Table string
	Block int
	Err   error // the last read error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("store: %s: block %d unreadable after retries: %v", e.Table, e.Block, e.Err)
}

// Unwrap matches both the ErrPartial sentinel and the underlying read
// error, so errors.Is works against either.
func (e *PartialError) Unwrap() []error { return []error{ErrPartial, e.Err} }

// IsTransient classifies a store read error as a blip worth retrying
// (fd pressure, an interrupted syscall, an injected transient fault)
// versus permanent damage. ErrCorrupt is never transient: a failed CRC
// does not heal on retry. Context errors and missing files are the
// caller's problem, not the disk's.
func IsTransient(err error) bool {
	if err == nil ||
		errors.Is(err, ErrCorrupt) ||
		errors.Is(err, ErrClosed) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, os.ErrNotExist) {
		return false
	}
	if faultfs.IsTransient(err) {
		return true
	}
	var errno syscall.Errno
	if errors.As(err, &errno) {
		switch errno {
		case syscall.EINTR, syscall.EAGAIN, syscall.EBUSY,
			syscall.EMFILE, syscall.ENFILE, syscall.ENOMEM:
			return true
		}
	}
	return false
}

// RetryPolicy bounds the retrying of transient read errors. The zero
// value means "use the defaults"; to disable retries entirely set
// MaxAttempts to 1.
type RetryPolicy struct {
	// MaxAttempts is the per-operation cap, counting the first try.
	MaxAttempts int
	// Budget is the total number of retries one query may spend across
	// all its scans; exhausting it fails the operation immediately.
	Budget int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it, capped at MaxDelay. The actual delay is drawn
	// uniformly from [delay/2, delay] by a deterministic jitter stream.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// AllowBoundedSkip permits degrading to sound bounds when a block is
	// unreadable after retries but its annotation summary proves every
	// row is annotated 0S (so dropping it can only omit result tuples
	// whose confidence is exactly zero). Without it such a block is a
	// *PartialError.
	AllowBoundedSkip bool
}

// DefaultRetryPolicy is the policy scans use when the query did not
// attach one: a few quick attempts, library-conservative (no bounded
// skips — unreadable data is an error).
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 4,
	Budget:      256,
	BaseDelay:   time.Millisecond,
	MaxDelay:    50 * time.Millisecond,
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.Budget <= 0 {
		p.Budget = d.Budget
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	return p
}

// RetryStats is what one query's retrying actually did, surfaced in
// ExecReport.
type RetryStats struct {
	Attempts      int64 // read operations that needed at least one retry
	Retries       int64 // retries performed
	Exhausted     int64 // operations abandoned (attempts or budget spent)
	BoundedBlocks int64 // unreadable blocks soundly skipped via AllZero
}

// RetryState carries one query's retry budget and counters across all
// the scans it opens. Attach it with ContextWithRetry; concurrent scans
// share it safely.
type RetryState struct {
	policy RetryPolicy
	mu     sync.Mutex
	budget int
	jitter uint64
	stats  RetryStats
}

// NewRetryState builds a state from a policy (zero fields defaulted).
func NewRetryState(p RetryPolicy) *RetryState {
	p = p.withDefaults()
	return &RetryState{policy: p, budget: p.Budget, jitter: 0x9E3779B97F4A7C15}
}

// Snapshot copies the counters.
func (s *RetryState) Snapshot() RetryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// nextJitter is splitmix64 — the repo has no ambient randomness, so
// backoff jitter comes from a deterministic stream too.
func (s *RetryState) nextJitter() uint64 {
	s.jitter += 0x9E3779B97F4A7C15
	z := s.jitter
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// noteBounded records one sound AllZero skip.
func (s *RetryState) noteBounded() {
	s.mu.Lock()
	s.stats.BoundedBlocks++
	s.mu.Unlock()
}

// do runs op, retrying transient errors with capped exponential backoff
// and jitter until the per-operation attempt cap or the query budget is
// spent. The returned error is the last one op produced (still
// transient-classified, so the caller can decide whether the failure is
// boundable); ctx cancellation interrupts the backoff sleep.
func (s *RetryState) do(ctx context.Context, op func() error) error {
	delay := s.policy.BaseDelay
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !IsTransient(err) {
			return err
		}
		s.mu.Lock()
		if attempt == 1 {
			s.stats.Attempts++
		}
		exhausted := attempt >= s.policy.MaxAttempts || s.budget <= 0
		if !exhausted {
			s.budget--
			s.stats.Retries++
		} else {
			s.stats.Exhausted++
		}
		jitter := s.nextJitter()
		s.mu.Unlock()
		if exhausted {
			return err
		}
		// Uniform in [delay/2, delay].
		d := delay/2 + time.Duration(jitter%uint64(delay/2+1))
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
		if delay *= 2; delay > s.policy.MaxDelay {
			delay = s.policy.MaxDelay
		}
	}
}

// retryKey keys the RetryState in a context.
type retryKey struct{}

// ContextWithRetry attaches a per-query retry state; every scan opened
// under the returned context draws from its budget and reports into its
// counters.
func ContextWithRetry(ctx context.Context, s *RetryState) context.Context {
	return context.WithValue(ctx, retryKey{}, s)
}

// RetryFrom extracts the query's retry state, if any.
func RetryFrom(ctx context.Context) *RetryState {
	s, _ := ctx.Value(retryKey{}).(*RetryState)
	return s
}
