package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/faultfs"
	"pvcagg/internal/obs"
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

// Metrics counts scan-level I/O. Bytes skipped are the encoded lengths
// of blocks the zone maps or annotation summaries proved irrelevant —
// the direct measure of how much the index saved.
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

// FaultFSEnv is the hidden chaos knob: when set, Open and Create route
// every file operation through a faultfs injector configured by its
// spec (see faultfs.FromEnv). Unset, the real filesystem is used with
// no indirection cost beyond one interface call per file operation.
const FaultFSEnv = "PVC_FAULTFS"

// Open loads the manifest and variable registry of a store directory. A
// directory without a committed manifest (e.g. after a crashed ingest)
// is refused with a plain error; damaged files surface *CorruptError.
func Open(dir string) (*Store, error) {
	fsys, _, err := faultfs.FromEnv(FaultFSEnv)
	if err != nil {
		return nil, err
	}
	return OpenFS(dir, fsys)
}

// OpenFS is Open over an explicit filesystem — the seam fault-injection
// tests use directly.
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
		return nil, fmt.Errorf("store: %s: format %d not supported (want %d)", dir, man.Format, Format)
	}
	kind, err := parseSemiring(man.Semiring)
	if err != nil {
		return nil, &CorruptError{File: manifestName, Block: -1, Reason: err.Error()}
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
			pairs = append(pairs, prob.Pair{V: v, P: p})
		}
		if len(pairs) == 0 || st.reg.Has(name) {
			return &CorruptError{File: varsName, Block: -1, Reason: fmt.Sprintf("bad variable record %q", name)}
		}
		st.reg.Declare(name, prob.FromPairs(pairs))
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

// Metrics returns a snapshot of the scan counters.
func (st *Store) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		BlocksRead:    st.metrics.BlocksRead.Load(),
		BlocksSkipped: st.metrics.BlocksSkipped.Load(),
		BytesRead:     st.metrics.BytesRead.Load(),
		BytesSkipped:  st.metrics.BytesSkipped.Load(),
		RowsRead:      st.metrics.RowsRead.Load(),
	}
}

// ResetMetrics zeroes the scan counters.
func (st *Store) ResetMetrics() {
	st.metrics.BlocksRead.Store(0)
	st.metrics.BlocksSkipped.Store(0)
	st.metrics.BytesRead.Store(0)
	st.metrics.BytesSkipped.Store(0)
	st.metrics.RowsRead.Store(0)
}

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

// Table is one stored table: schema, block index with parsed zone maps,
// and persisted statistics. It implements pvc.TableProvider and
// pvc.StatsProvider.
type Table struct {
	st         *Store
	meta       *tableMeta
	schema     pvc.Schema
	mins, maxs [][]pvc.Cell
}

// TableName implements pvc.TableProvider.
func (t *Table) TableName() string { return t.meta.Name }

// Schema implements pvc.TableProvider. The caller must not mutate it.
func (t *Table) Schema() pvc.Schema { return t.schema }

// Rows returns the stored row count.
func (t *Table) Rows() int64 { return t.meta.Rows }

// Blocks returns the number of blocks.
func (t *Table) Blocks() int { return len(t.meta.Blocks) }

// TableStats implements pvc.StatsProvider from the persisted manifest
// statistics — no scan.
func (t *Table) TableStats() (pvc.TableStats, bool) {
	ts := pvc.TableStats{Rows: float64(t.meta.Rows), Distinct: make(map[string]float64, len(t.meta.Distinct))}
	for k, v := range t.meta.Distinct {
		ts.Distinct[k] = v
	}
	return ts, true
}

// NewScan implements pvc.TableProvider: a block-granular scan that skips
// blocks the zone maps prove cannot satisfy a hint, drops the rows of a
// read block that fail a hint, and — when DropZero is set — skips blocks
// whose annotation summary proves every row is annotated 0S and drops
// such rows. The tuples it returns have lent Cells (pvc.TupleIter).
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
	var f faultfs.File
	err := retry.do(ctx, func() error {
		var e error
		f, e = t.st.fs.Open(filepath.Join(t.st.dir, t.meta.File))
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", t.meta.Name, err)
	}
	return &scanIter{
		ctx: ctx, t: t, f: f, retry: retry, span: obs.SpanFrom(ctx),
		cols: cols, hints: opts.Hints, dropZero: opts.DropZero,
		blk: newBlockVecs(t.schema, cols, opts.Hints),
		row: make([]pvc.Cell, len(cols)),
	}, nil
}

// scanIter streams one table block by block. Transient read errors are
// retried under the scan's RetryState; a block still unreadable after
// retries either degrades soundly (AllZero summary, bounded-skip
// allowed) or terminates the scan with a *PartialError — in both cases
// the underlying file is released eagerly rather than waiting for
// Close.
//
// Nothing is allocated per row: a block is decoded into the typed
// vectors of blk, which the scan owns and refills for every block, and
// Next copies the cells of one surviving row into row, the buffer every
// returned tuple lends.
type scanIter struct {
	ctx      context.Context
	t        *Table
	f        faultfs.File
	retry    *RetryState
	span     *obs.Span // per-query trace counters; nil (no-op) untraced
	cols     []int
	hints    []pvc.ScanHint
	dropZero bool

	bi     int
	buf    []byte // raw bytes of the current block
	blk    *blockVecs
	si     int        // next entry of blk.sel to hand out
	row    []pvc.Cell // lent to the caller until the next Next or Close
	closed bool
}

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
	if it.closed {
		return pvc.Tuple{}, false, ErrClosed
	}
	for {
		if it.si < len(it.blk.sel) {
			i := int(it.blk.sel[it.si])
			it.si++
			for o, ci := range it.cols {
				it.row[o] = it.blk.cell(ci, i)
			}
			return pvc.Tuple{Cells: it.row, Ann: it.blk.anns[i]}, true, nil
		}
		if err := it.ctx.Err(); err != nil {
			it.release()
			return pvc.Tuple{}, false, err
		}
		m := &it.t.st.metrics
		for it.bi < len(it.t.meta.Blocks) && it.skip(it.bi) {
			m.BlocksSkipped.Add(1)
			m.BytesSkipped.Add(int64(it.t.meta.Blocks[it.bi].Len))
			it.span.Add("store.blocks_skipped", 1)
			it.span.Add("store.bytes_skipped", int64(it.t.meta.Blocks[it.bi].Len))
			it.bi++
		}
		if it.bi >= len(it.t.meta.Blocks) {
			// Exhausted: release the file now rather than waiting for
			// Close, surfacing any close error exactly once.
			return pvc.Tuple{}, false, it.release()
		}
		it.si = 0
		err := it.retry.do(it.ctx, func() error { return it.readBlock(it.bi) })
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				it.release()
				return pvc.Tuple{}, false, err
			}
			if IsTransient(err) && it.retry.policy.AllowBoundedSkip && it.t.meta.Blocks[it.bi].AllZero {
				// Sound degradation: the annotation summary proves every
				// row in the block is annotated 0S, so dropping it can
				// only omit result tuples whose confidence is exactly
				// zero. Anything else unreadable is a partial failure.
				it.retry.noteBounded()
				m.BlocksSkipped.Add(1)
				m.BytesSkipped.Add(int64(it.t.meta.Blocks[it.bi].Len))
				it.span.Add("store.blocks_skipped", 1)
				it.span.Add("store.bounded_blocks", 1)
				it.bi++
				continue
			}
			it.t.st.health.fail()
			if IsTransient(err) {
				err = &PartialError{Table: it.t.meta.Name, Block: it.bi, Err: err}
			}
			it.closed = true
			it.release()
			return pvc.Tuple{}, false, err
		}
		// Rows read are the rows decoded less the zero-annotated rows
		// DropZero removed; the hints then filter blk.sel further.
		rows := int64(len(it.blk.sel))
		it.blk.filter(it.hints)
		it.t.st.health.ok()
		m.BlocksRead.Add(1)
		m.BytesRead.Add(int64(it.t.meta.Blocks[it.bi].Len))
		m.RowsRead.Add(rows)
		it.span.Add("store.blocks_read", 1)
		it.span.Add("store.bytes_read", int64(it.t.meta.Blocks[it.bi].Len))
		it.span.Add("store.rows_read", rows)
		it.bi++
	}
}

// readBlock reads and verifies block bi into the scan's reused buffer and
// decodes it into blk; on any error blk holds no row.
func (it *scanIter) readBlock(bi int) error {
	bm := it.t.meta.Blocks[bi]
	it.blk.sel = it.blk.sel[:0]
	if it.f == nil {
		return ErrClosed
	}
	if cap(it.buf) < bm.Len {
		it.buf = make([]byte, bm.Len)
	}
	buf := it.buf[:bm.Len]
	if _, err := it.f.ReadAt(buf, bm.Off); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Truncation is damage, not a blip.
			return &CorruptError{File: it.t.meta.File, Block: bi, Reason: fmt.Sprintf("read %d bytes at %d: %v", bm.Len, bm.Off, err)}
		}
		// Preserve the chain so IsTransient can classify it.
		return fmt.Errorf("store: %s: block %d: read %d bytes at %d: %w", it.t.meta.File, bi, bm.Len, bm.Off, err)
	}
	if err := it.blk.decode(buf, bm.Rows, it.t.st.varExprs, it.dropZero); err != nil {
		return &CorruptError{File: it.t.meta.File, Block: bi, Reason: err.Error()}
	}
	return nil
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

func (it *scanIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.blk.sel = nil
	return it.release()
}
