package pvcagg

import (
	"pvcagg/internal/store"
)

// This file is the public face of the disk-backed storage engine
// (internal/store): OpenStore opens a pvc-database written by pvcimport
// (or store.Writer) read-only, and WithStore points Exec/ExecQuery at it.
// Stored tables serve plan scans block by block — with zone-map and
// annotation-summary skipping under pushed-down selections — so datasets
// larger than resident memory stay queryable.

// Store is a read-only handle on a disk-backed pvc-database. The opened
// snapshot is epoch-stamped: the manifest read at OpenStore pins the
// block set, so concurrent re-imports into a fresh directory never tear
// an open query. Safe for concurrent use.
type Store struct {
	st *store.Store
	db *Database
}

// StoreMetrics is a point-in-time snapshot of a store's I/O counters:
// blocks and bytes actually read versus skipped by block-level pruning.
type StoreMetrics = store.MetricsSnapshot

// ErrStoreCorrupt matches (via errors.Is) every corruption error the
// storage engine reports: truncated or bit-flipped blocks, damaged
// manifests, checksum mismatches.
var ErrStoreCorrupt = store.ErrCorrupt

// ErrStorePartial matches (via errors.Is) a partial-failure error: part
// of the store stayed unreadable after the query's retry budget was
// spent and was not provably boundable, so no sound answer exists. See
// WithRetry for the retry and bounded-skip semantics.
var ErrStorePartial = store.ErrPartial

// RetryPolicy bounds the retrying of transient store read errors; see
// WithRetry. Zero fields take defaults.
type RetryPolicy = store.RetryPolicy

// RetryStats reports what a query's retry budget actually did; see
// ExecReport.Store.
type RetryStats = store.RetryStats

// IsTransientStoreError classifies a store read error as a transient
// blip worth retrying (fd pressure, interrupted syscalls, injected
// transient faults) versus permanent damage — ErrStoreCorrupt is never
// transient.
func IsTransientStoreError(err error) bool { return store.IsTransient(err) }

// OpenStore opens the disk-backed pvc-database in dir. The directory
// must contain a committed manifest (import must have completed); a
// missing manifest or damaged files yield descriptive errors, with
// corruption matching ErrStoreCorrupt.
func OpenStore(dir string) (*Store, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Store{st: st, db: st.Database()}, nil
}

// DB returns the Database view of the store: every stored table is
// registered as a scan provider, and the store's variable registry backs
// probabilistic annotations. The view is shared — mutating it (adding
// in-memory relations) is visible to every caller holding this Store.
func (s *Store) DB() *Database { return s.db }

// Epoch is the snapshot epoch stamped into the manifest at import time.
func (s *Store) Epoch() uint64 { return s.st.Epoch() }

// Names lists the stored tables in import order.
func (s *Store) Names() []string { return s.st.Names() }

// Metrics snapshots the cumulative I/O counters of every scan served by
// this store since open.
func (s *Store) Metrics() StoreMetrics { return s.st.Metrics() }

// Healthy returns nil while the storage backend looks fine, or a
// descriptive error once enough consecutive block reads have failed
// terminally (sticky until the next successful read). A server's
// readiness probe watches this.
func (s *Store) Healthy() error { return s.st.Healthy() }

// WithStore directs execution at a disk-backed database: Exec and
// ExecQuery accept a nil *Database (or the store's own DB()) and run
// against the store's tables. Conflicting combinations — a different
// non-nil database together with WithStore — are rejected.
func WithStore(st *Store) Option {
	return func(c *execConfig) { c.store = st }
}
