package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/faultfs"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
	"pvcagg/internal/vars"
)

// ErrCorrupt is the sentinel wrapped by every *CorruptError, so callers
// can errors.Is(err, store.ErrCorrupt) without caring which file or
// block failed.
var ErrCorrupt = errors.New("store: corrupt data")

// ErrClosed is returned by Next after Close, and by Next when Open (the
// engine-side NewScan) never ran.
var ErrClosed = errors.New("store: iterator closed")

// ErrFormat is the sentinel wrapped by Open's error for a store written
// in an on-disk format this build does not read: such a store must be
// imported again with pvcimport.
var ErrFormat = errors.New("store: unsupported format")

// CorruptError reports a failed CRC, a truncated file, or an undecodable
// segment, locating the damage.
type CorruptError struct {
	File   string
	Block  int // block index within the file; -1 for file-level damage
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Block < 0 {
		return fmt.Sprintf("store: %s: %s", e.File, e.Reason)
	}
	return fmt.Sprintf("store: %s: block %d: %s", e.File, e.Block, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// Metrics counts scan-level I/O: a store's totals, or one query's own
// account (ContextWithMetrics). Bytes skipped are the encoded lengths of
// blocks the zone maps or annotation summaries proved irrelevant — the
// direct measure of how much the index saved.
type Metrics struct {
	BlocksRead    atomic.Int64
	BlocksSkipped atomic.Int64
	BytesRead     atomic.Int64
	BytesSkipped  atomic.Int64
	RowsRead      atomic.Int64
}

// MetricsSnapshot is a point-in-time copy of Metrics.
type MetricsSnapshot struct {
	BlocksRead    int64
	BlocksSkipped int64
	BytesRead     int64
	BytesSkipped  int64
	RowsRead      int64
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		BlocksRead:    m.BlocksRead.Load(),
		BlocksSkipped: m.BlocksSkipped.Load(),
		BytesRead:     m.BytesRead.Load(),
		BytesSkipped:  m.BytesSkipped.Load(),
		RowsRead:      m.RowsRead.Load(),
	}
}

// metricsKey keys a query's own Metrics in a context.
type metricsKey struct{}

// ContextWithMetrics attaches a query's own I/O account: every scan
// opened under the returned context counts into m as well as into its
// store's totals.
func ContextWithMetrics(ctx context.Context, m *Metrics) context.Context {
	return context.WithValue(ctx, metricsKey{}, m)
}

// Store is a read-only snapshot of an on-disk store directory: the
// manifest (block index and statistics) and variable registry are loaded
// at Open and never re-read, so a Store observes exactly one epoch even
// if the directory is later replaced by a new ingest.
type Store struct {
	dir      string
	fs       faultfs.FS
	man      manifest
	kind     algebra.SemiringKind
	reg      *vars.Registry
	varExprs []expr.Expr // ordinal → the variable, boxed once for every annotation that names it
	tables   map[string]*Table
	order    []string
	metrics  Metrics
	health   storeHealth
}

// Open loads the manifest and variable registry of a store directory
// from the real filesystem. A directory without a committed manifest
// (e.g. after a crashed ingest) is refused with a plain error, a store
// written in another format with ErrFormat; damaged files surface
// *CorruptError.
func Open(dir string) (*Store, error) { return OpenFS(dir, faultfs.OS()) }

// OpenFS is Open over an explicit filesystem: the one seam through which
// tests inject faults into a store's reads.
func OpenFS(dir string, fsys faultfs.FS) (*Store, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: %s is not a store (no committed manifest): %w", dir, err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, &CorruptError{File: manifestName, Block: -1, Reason: fmt.Sprintf("bad manifest: %v", err)}
	}
	if man.Format != Format {
		return nil, fmt.Errorf("%w: %s holds format %d and this build reads format %d; re-import it with pvcimport", ErrFormat, dir, man.Format, Format)
	}
	kind, err := parseSemiring(man.Semiring)
	if err != nil {
		return nil, &CorruptError{File: manifestName, Block: -1, Reason: err.Error()}
	}
	if man.BlockCapacity < 1 || man.BlockCapacity > maxBlockCapacity {
		return nil, &CorruptError{File: manifestName, Block: -1, Reason: fmt.Sprintf("block capacity %d", man.BlockCapacity)}
	}
	st := &Store{dir: dir, fs: fsys, man: man, kind: kind, tables: map[string]*Table{}}
	if err := st.loadVars(); err != nil {
		return nil, err
	}
	for i := range man.Tables {
		tm := &man.Tables[i]
		t := &Table{st: st, meta: tm}
		for _, c := range tm.Cols {
			ty := pvc.TValue
			if c.Type == "string" {
				ty = pvc.TString
			}
			t.schema = append(t.schema, pvc.Col{Name: c.Name, Type: ty})
		}
		for bi, b := range tm.Blocks {
			// The extent is checked against the data file when a scan
			// opens it; here, what no file of any size could hold. The
			// row count sizes a scan's vectors, so it is held to the
			// block capacity.
			if b.Rows < 0 || b.Rows > man.BlockCapacity || b.Off < 0 || b.Len < minBlockLen || b.Off > math.MaxInt64-int64(b.Len) {
				return nil, &CorruptError{File: manifestName, Block: bi, Reason: fmt.Sprintf("table %s: block of %d rows in %d bytes at %d", tm.Name, b.Rows, b.Len, b.Off)}
			}
			if len(b.Mins) != len(t.schema) || len(b.Maxs) != len(t.schema) {
				return nil, &CorruptError{File: manifestName, Block: bi, Reason: fmt.Sprintf("table %s: zone map arity mismatch", tm.Name)}
			}
			mins := make([]pvc.Cell, len(t.schema))
			maxs := make([]pvc.Cell, len(t.schema))
			for ci := range t.schema {
				if mins[ci], err = parseZone(b.Mins[ci], t.schema[ci].Type); err != nil {
					return nil, &CorruptError{File: manifestName, Block: bi, Reason: fmt.Sprintf("table %s: bad zone map: %v", tm.Name, err)}
				}
				if maxs[ci], err = parseZone(b.Maxs[ci], t.schema[ci].Type); err != nil {
					return nil, &CorruptError{File: manifestName, Block: bi, Reason: fmt.Sprintf("table %s: bad zone map: %v", tm.Name, err)}
				}
			}
			t.mins = append(t.mins, mins)
			t.maxs = append(t.maxs, maxs)
		}
		if _, dup := st.tables[tm.Name]; dup {
			return nil, &CorruptError{File: manifestName, Block: -1, Reason: fmt.Sprintf("duplicate table %q", tm.Name)}
		}
		st.tables[tm.Name] = t
		st.order = append(st.order, tm.Name)
	}
	return st, nil
}

// loadVars reads vars.dat (absent when no annotation references a
// variable) into a fresh registry.
func (st *Store) loadVars() error {
	st.reg = vars.NewRegistry()
	data, err := st.fs.ReadFile(filepath.Join(st.dir, varsName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read %s: %w", varsName, err)
	}
	if len(data) < len(varsMagic)+4 || string(data[:len(varsMagic)]) != varsMagic {
		return &CorruptError{File: varsName, Block: -1, Reason: "bad magic"}
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return &CorruptError{File: varsName, Block: -1, Reason: "checksum mismatch"}
	}
	r := &reader{buf: body, pos: len(varsMagic)}
	n, err := r.uvarint()
	if err != nil {
		return &CorruptError{File: varsName, Block: -1, Reason: err.Error()}
	}
	for i := uint64(0); i < n; i++ {
		name, err := r.string()
		if err != nil {
			return &CorruptError{File: varsName, Block: -1, Reason: err.Error()}
		}
		np, err := r.uvarint()
		if err != nil {
			return &CorruptError{File: varsName, Block: -1, Reason: err.Error()}
		}
		// A pair takes at least 9 bytes (a value tag and a float64), so a
		// count the bytes left cannot hold is corrupt, not a size.
		if left := uint64(len(r.buf) - r.pos); np > left/9 {
			return &CorruptError{File: varsName, Block: -1, Reason: fmt.Sprintf("variable %q: %d pairs in %d bytes", name, np, left)}
		}
		pairs := make([]prob.Pair, 0, np)
		for j := uint64(0); j < np; j++ {
			v, err := r.value()
			if err != nil {
				return &CorruptError{File: varsName, Block: -1, Reason: err.Error()}
			}
			p, err := r.float64()
			if err != nil {
				return &CorruptError{File: varsName, Block: -1, Reason: err.Error()}
			}
			if !(p >= 0) {
				return &CorruptError{File: varsName, Block: -1, Reason: fmt.Sprintf("variable %q: probability %v", name, p)}
			}
			pairs = append(pairs, prob.Pair{V: v, P: p})
		}
		d := prob.FromPairs(pairs)
		if d.Size() == 0 || st.reg.Has(name) {
			return &CorruptError{File: varsName, Block: -1, Reason: fmt.Sprintf("bad variable record %q", name)}
		}
		st.reg.Declare(name, d)
		st.varExprs = append(st.varExprs, expr.V(name))
	}
	return nil
}

// Epoch returns the snapshot's epoch stamp from the manifest.
func (st *Store) Epoch() uint64 { return st.man.Epoch }

// Kind returns the semiring the store's annotations are valued in.
func (st *Store) Kind() algebra.SemiringKind { return st.kind }

// Registry returns the variable registry loaded from the store.
func (st *Store) Registry() *vars.Registry { return st.reg }

// Names lists the stored tables in ingest order.
func (st *Store) Names() []string {
	out := make([]string, len(st.order))
	copy(out, st.order)
	return out
}

// Table returns the named stored table.
func (st *Store) Table(name string) (*Table, bool) {
	t, ok := st.tables[name]
	return t, ok
}

// Database assembles a pvc.Database whose scans resolve to this store:
// every stored table is registered as a TableProvider over the store's
// registry and semiring.
func (st *Store) Database() *pvc.Database {
	db := pvc.NewDatabase(st.kind)
	db.Registry = st.reg
	for _, name := range st.order {
		db.AddProvider(st.tables[name])
	}
	return db
}

// Metrics returns a snapshot of the store's scan totals since Open.
func (st *Store) Metrics() MetricsSnapshot { return st.metrics.Snapshot() }

// storeHealth tracks consecutive terminal block-read failures, the
// sticky signal a server's readiness probe watches.
type storeHealth struct {
	consecutive atomic.Int64
}

// stickyFailureThreshold is how many consecutive terminal read failures
// mark the backend unhealthy.
const stickyFailureThreshold = 3

func (h *storeHealth) fail() { h.consecutive.Add(1) }
func (h *storeHealth) ok()   { h.consecutive.Store(0) }

// Healthy returns nil while the backend looks fine, or an error once
// enough consecutive block reads have failed terminally (retries
// exhausted, or corruption). The next successful read clears it.
func (st *Store) Healthy() error {
	if n := st.health.consecutive.Load(); n >= stickyFailureThreshold {
		return fmt.Errorf("store: backend unhealthy: %d consecutive failed block reads", n)
	}
	return nil
}

// Table is one stored table: schema and block index with parsed zone
// maps. It implements pvc.TableProvider and pvc.ExactScanner.
type Table struct {
	st         *Store
	meta       *tableMeta
	schema     pvc.Schema
	mins, maxs [][]pvc.Cell

	// scratch is the free list of scan scratches (blockVecs over schema),
	// each lent to one scan at a time. Unlike a sync.Pool, garbage
	// collection does not empty it; it keeps at most two per GOMAXPROCS,
	// as a scan that reads ahead borrows two.
	scratch struct {
		sync.Mutex
		free []*blockVecs
	}
}

// TableName implements pvc.TableProvider.
func (t *Table) TableName() string { return t.meta.Name }

// Schema implements pvc.TableProvider. The caller must not mutate it.
func (t *Table) Schema() pvc.Schema { return t.schema }

// Rows implements pvc.TableProvider: the stored row count.
func (t *Table) Rows() int64 { return t.meta.Rows }

// Blocks returns the number of blocks.
func (t *Table) Blocks() int { return len(t.meta.Blocks) }

// ExactHints implements pvc.ExactScanner: a scan filters exactly on the
// hints it can evaluate (blockVecs.filter) and DropZero.
func (t *Table) ExactHints(hints []pvc.ScanHint) bool {
	for _, h := range hints {
		if !filterable(t.schema, h) {
			return false
		}
	}
	return true
}

// NewScan implements pvc.TableProvider: a block-granular scan that skips
// blocks the zone maps prove cannot satisfy a hint, drops the rows of a
// read block that fail a hint, and — when DropZero is set — skips blocks
// whose annotation summary proves every row is annotated 0S and drops
// such rows. It is a pvc.BatchIter: its tuples have lent Cells, and its
// batches lend the block's vectors.
func (t *Table) NewScan(ctx context.Context, opts pvc.ScanOptions) (pvc.TupleIter, error) {
	cols := opts.Cols
	if cols == nil {
		cols = make([]int, len(t.schema))
		for i := range cols {
			cols[i] = i
		}
	}
	for _, c := range cols {
		if c < 0 || c >= len(t.schema) {
			return nil, fmt.Errorf("store: %s: column index %d out of range", t.meta.Name, c)
		}
	}
	retry := RetryFrom(ctx)
	if retry == nil {
		// Scans outside a query-level retry scope still retry transient
		// blips, with a private per-scan budget.
		retry = NewRetryState(DefaultRetryPolicy)
	}
	var (
		f  faultfs.File
		fi os.FileInfo
	)
	path := filepath.Join(t.st.dir, t.meta.File)
	err := retry.do(ctx, func() error {
		var e error
		if fi, e = t.st.fs.Stat(path); e != nil {
			return e
		}
		f, e = t.st.fs.Open(path)
		return e
	})
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil, &CorruptError{File: t.meta.File, Block: -1, Reason: fmt.Sprintf("table %s: data file missing", t.meta.Name)}
	case err != nil:
		return nil, fmt.Errorf("store: %s: %w", t.meta.Name, err)
	case !fi.Mode().IsRegular():
		f.Close()
		return nil, &CorruptError{File: t.meta.File, Block: -1, Reason: fmt.Sprintf("table %s: data file is not a regular file", t.meta.Name)}
	}
	query, _ := ctx.Value(metricsKey{}).(*Metrics)
	return &scanIter{
		ctx: ctx, t: t, f: f, size: fi.Size(), retry: retry,
		accounts: [2]*Metrics{&t.st.metrics, query},
		cols:     cols, hints: opts.Hints, dropZero: opts.DropZero,
		blk: t.borrow(cols, opts.Hints),
		row: make([]pvc.Cell, len(cols)),
	}, nil
}

// borrow takes a scan scratch from the table's free list, or makes one,
// and readies it for a scan of cols under hints. The scan gives it back
// (scanIter.giveBack) when it closes.
func (t *Table) borrow(cols []int, hints []pvc.ScanHint) *blockVecs {
	var b *blockVecs
	t.scratch.Lock()
	if n := len(t.scratch.free); n > 0 {
		b = t.scratch.free[n-1]
		t.scratch.free = t.scratch.free[:n-1]
	}
	t.scratch.Unlock()
	if b == nil {
		b = newBlockVecs(t.schema)
	}
	b.reset(cols, hints)
	return b
}

// scanIter streams one table block by block. Transient read errors are
// retried under the scan's RetryState; a block still unreadable after
// retries either degrades soundly (AllZero summary, bounded-skip
// allowed) or terminates the scan with a *PartialError — in both cases
// the underlying file is released eagerly rather than waiting for
// Close.
//
// Every read happens on the scan's goroutine, in block order: stage
// reads the next block not skipped into blk.raw. Once a scan has taken
// its first block, if another remains and GOMAXPROCS > 1, it reads
// ahead: it borrows a second scratch, next, starts one helper goroutine
// and, on taking each block, stages the following one at once, which
// the helper verifies, decodes and filters into next while the operator
// above consumes blk. A block the helper has not begun the scan decodes
// itself, so it never waits for work that has not started. Otherwise it
// stages and decodes each block inline when it needs it. Either way
// errors, cancellation and the end surface in block order, at block
// boundaries.
//
// Nothing is allocated per row or per block: blocks are decoded into
// scratches borrowed from the table, the two of a scan that reads ahead
// share blk's raw buffer, and batch views blk's surviving rows
// column-wise. NextBatch lends batch; Next walks it, copying the cells
// of one row into row, the buffer every returned tuple lends. Once
// closed, the scan has joined its helper and holds no scratch.
type scanIter struct {
	ctx      context.Context
	t        *Table
	f        faultfs.File
	size     int64 // of the data file when the scan opened it
	retry    *RetryState
	accounts [2]*Metrics // the store's totals and the query's own, if any
	cols     []int
	hints    []pvc.ScanHint
	dropZero bool

	bi     int        // the block staged or to stage; len(Blocks) at the end
	blk    *blockVecs // borrowed from t until closed; holds the raw buffer
	si     int        // next entry of blk.Sel to hand out
	row    []pvc.Cell // lent to the caller until the next Next or Close
	batch  pvc.Batch  // blk's output columns; lent like row
	closed bool

	// Read-ahead (next is nil without it). While a job is pending or
	// taken, the scan touches nerr, nrows and next only once it has
	// claimed the job or received done.
	nerr  error         // the staged block's read or decode error
	nrows int64         // rows the staged block decoded to, before the hints
	next  *blockVecs    // the scratch block bi is decoded into
	job   atomic.Int32  // jobIdle, jobPending or jobTaken
	wake  chan struct{} // signals a job may be pending; closed to stop the helper
	done  chan struct{} // a job the helper took is decoded; closed as it exits
}

// The read-ahead job: the helper begins a staged block by moving it
// from pending to taken, the scan claims one not begun by moving it to
// idle.
const (
	jobIdle int32 = iota
	jobPending
	jobTaken
)

// skip reports whether block bi can be skipped without reading it.
func (it *scanIter) skip(bi int) bool {
	if it.dropZero && it.t.meta.Blocks[bi].AllZero {
		return true
	}
	for _, h := range it.hints {
		if !blockMayMatch(h, it.t.mins[bi], it.t.maxs[bi]) {
			return true
		}
	}
	return false
}

func (it *scanIter) Next() (pvc.Tuple, bool, error) {
	if ok, err := it.fill(); !ok {
		return pvc.Tuple{}, false, err
	}
	i := int(it.blk.Sel[it.si])
	it.si++
	for o := range it.cols {
		it.row[o] = it.batch.Cell(o, i)
	}
	return pvc.Tuple{Cells: it.row, Ann: it.batch.Anns[i]}, true, nil
}

// NextBatch implements pvc.BatchIter: the rows of the current block that
// Next has not handed out.
func (it *scanIter) NextBatch() (*pvc.Batch, bool, error) {
	if ok, err := it.fill(); !ok {
		return nil, false, err
	}
	it.batch.Sel = it.blk.Sel[it.si:]
	it.si = len(it.blk.Sel)
	return &it.batch, true, nil
}

// fill makes sure the current block has a row left to hand out, taking
// staged blocks until one has: ok=false at end of stream or on error.
func (it *scanIter) fill() (bool, error) {
	if it.closed {
		return false, ErrClosed
	}
	for it.si >= len(it.blk.Sel) {
		if err := it.ctx.Err(); err != nil {
			it.stop()
			it.release()
			return false, err
		}
		if it.next == nil {
			it.stage()
		}
		if it.bi >= len(it.t.meta.Blocks) {
			// Exhausted: release the file now rather than waiting for
			// Close, surfacing any close error exactly once.
			it.stop()
			return false, it.release()
		}
		dst := it.blk
		if it.next != nil {
			dst = it.next
		}
		switch {
		case it.job.CompareAndSwap(jobPending, jobIdle): // not begun
			it.decodeStaged(dst)
		case it.job.CompareAndSwap(jobTaken, jobIdle):
			<-it.done
		case it.nerr == nil: // nothing handed to the helper
			it.decodeStaged(dst)
		}
		if err := it.nerr; err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				it.stop()
				it.release()
				return false, err
			}
			it.t.st.health.fail()
			if IsTransient(err) {
				err = &PartialError{Table: it.t.meta.Name, Block: it.bi, Err: err}
			}
			it.closed = true
			it.stop()
			it.giveBack()
			it.release()
			return false, err
		}
		if dst != it.blk {
			// The raw buffer stays with the lent scratch.
			it.blk, it.next = dst, it.blk
			it.blk.raw, it.next.raw = it.next.raw, it.blk.raw
		}
		it.si = 0
		b := &it.batch
		b.Vals, b.Strs, b.Anns = b.Vals[:0], b.Strs[:0], it.blk.Anns
		b.Dicts, b.Codes, b.Spans = b.Dicts[:0], b.Codes[:0], b.Spans[:0]
		for _, ci := range it.cols {
			b.Vals, b.Strs = append(b.Vals, it.blk.Vals[ci]), append(b.Strs, it.blk.Strs[ci])
			b.Dicts, b.Codes = append(b.Dicts, it.blk.Dicts[ci]), append(b.Codes, it.blk.Codes[ci])
			b.Spans = append(b.Spans, it.blk.Spans[ci])
		}
		it.t.st.health.ok()
		it.count(true)
		it.bi++
		if it.next == nil && runtime.GOMAXPROCS(0) > 1 && it.more() {
			it.next = it.t.borrow(it.cols, it.hints)
			it.wake, it.done = make(chan struct{}, 1), make(chan struct{}, 1)
			go it.readAhead()
		}
		if it.next != nil {
			it.stage()
		}
	}
	return true, nil
}

// more reports whether a block from bi on survives the zone maps and
// AllZero.
func (it *scanIter) more() bool {
	for bi := it.bi; bi < len(it.t.meta.Blocks); bi++ {
		if !it.skip(bi) {
			return true
		}
	}
	return false
}

// stage moves bi to the next block the scan does not skip and reads it
// into blk.raw under the scan's RetryState, leaving the read's error in
// nerr; an unreadable AllZero block it may skip soundly, it skips. A
// block read without error goes to the helper when the scan reads ahead.
func (it *scanIter) stage() {
	for ; ; it.bi++ {
		for it.bi < len(it.t.meta.Blocks) && it.skip(it.bi) {
			it.count(false)
			it.bi++
		}
		if it.bi >= len(it.t.meta.Blocks) {
			return
		}
		it.nerr = it.retry.do(it.ctx, func() error { return it.readBlock(it.bi) })
		if it.nerr != nil && IsTransient(it.nerr) && it.retry.policy.AllowBoundedSkip && it.t.meta.Blocks[it.bi].AllZero {
			// Sound degradation: the annotation summary proves every
			// row in the block is annotated 0S, so dropping it can
			// only omit result tuples whose confidence is exactly
			// zero. Anything else unreadable is a partial failure.
			it.retry.noteBounded()
			it.count(false)
			continue
		}
		break
	}
	if it.next != nil && it.nerr == nil {
		it.job.Store(jobPending)
		select {
		case it.wake <- struct{}{}:
		default: // a signal is already waiting
		}
	}
}

// count adds block bi to every account of the scan: read, as nrows
// rows, or skipped. Each count goes to the store's totals and to the
// query's account alike, so the two cannot drift.
func (it *scanIter) count(read bool) {
	n := int64(it.t.meta.Blocks[it.bi].Len)
	for _, m := range it.accounts {
		switch {
		case m == nil:
		case read:
			m.BlocksRead.Add(1)
			m.BytesRead.Add(n)
			m.RowsRead.Add(it.nrows)
		default:
			m.BlocksSkipped.Add(1)
			m.BytesSkipped.Add(n)
		}
	}
}

// readAhead is the helper: it decodes each staged block it can take
// from pending until stop closes wake.
func (it *scanIter) readAhead() {
	defer close(it.done)
	for range it.wake {
		if it.job.CompareAndSwap(jobPending, jobTaken) {
			it.decodeStaged(it.next)
			it.done <- struct{}{}
		}
	}
}

// decodeStaged verifies and decodes staged block bi from blk.raw into
// dst and filters it under the hints; on error dst holds no row. It
// leaves in nrows the rows read — the rows decoded less the zero-
// annotated rows DropZero removed — before the hints filter dst.Sel
// further. The inline path and the helper both decode with it.
func (it *scanIter) decodeStaged(dst *blockVecs) {
	bm := it.t.meta.Blocks[it.bi]
	if err := dst.decode(it.blk.raw[:bm.Len], bm.Rows, it.t.st.varExprs, it.dropZero); err != nil {
		it.nerr = &CorruptError{File: it.t.meta.File, Block: it.bi, Reason: err.Error()}
		return
	}
	it.nrows = int64(len(dst.Sel))
	dst.filter(it.hints)
}

// readBlock reads block bi, unverified, into blk's reused buffer.
func (it *scanIter) readBlock(bi int) error {
	bm := it.t.meta.Blocks[bi]
	if it.f == nil {
		return ErrClosed
	}
	if bm.Off+int64(bm.Len) > it.size {
		return &CorruptError{File: it.t.meta.File, Block: bi, Reason: fmt.Sprintf("table %s: %d bytes at %d reach past the file's %d", it.t.meta.Name, bm.Len, bm.Off, it.size)}
	}
	it.blk.raw = grow(it.blk.raw, bm.Len)
	if _, err := it.f.ReadAt(it.blk.raw, bm.Off); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Truncation is damage, not a blip.
			return &CorruptError{File: it.t.meta.File, Block: bi, Reason: fmt.Sprintf("read %d bytes at %d: %v", bm.Len, bm.Off, err)}
		}
		// Preserve the chain so IsTransient can classify it.
		return fmt.Errorf("store: %s: block %d: read %d bytes at %d: %w", it.t.meta.File, bi, bm.Len, bm.Off, err)
	}
	return nil
}

// stop ends read-ahead: it claims a block the helper has not begun,
// stops the helper and waits for it to exit, so that neither scratch is
// written again. Later calls are no-ops.
func (it *scanIter) stop() {
	if it.wake == nil {
		return
	}
	it.job.CompareAndSwap(jobPending, jobIdle)
	close(it.wake)
	for range it.done {
	}
	it.wake = nil
}

// release closes the underlying file once; later calls are no-ops.
func (it *scanIter) release() error {
	if it.f == nil {
		return nil
	}
	f := it.f
	it.f = nil
	return f.Close()
}

// giveBack returns the scan's scratches to its table's free list, blk
// last so that the next scan borrows the one holding the raw buffer
// first; the list drops what would overflow it. It runs once per scan,
// after stop, as the scan becomes closed (in Close, or in Next on a
// terminal failure), and drops the scan's references, so a scratch is
// never lent to two scans.
func (it *scanIter) giveBack() {
	sc := &it.t.scratch
	sc.Lock()
	for _, b := range [...]*blockVecs{it.next, it.blk} {
		if b != nil && len(sc.free) < 2*runtime.GOMAXPROCS(0) {
			sc.free = append(sc.free, b)
		}
	}
	sc.Unlock()
	it.blk, it.next, it.batch = nil, nil, pvc.Batch{}
}

func (it *scanIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.stop()
	it.giveBack()
	return it.release()
}
