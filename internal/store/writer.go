package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/faultfs"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// DefaultBlockCapacity is the row-group size used when Options leaves
// BlockCapacity zero.
const DefaultBlockCapacity = 4096

// maxBlockCapacity bounds Options.BlockCapacity, and at Open a
// manifest's block capacity: a block's row count is bounded by nothing
// else, since a packed column can hold a row in no bytes at all.
const maxBlockCapacity = 1 << 20

// Options configures store creation.
type Options struct {
	// BlockCapacity is the fixed row-group size: every block but the last
	// of a table holds exactly this many rows. It is at most 2²⁰.
	BlockCapacity int
}

// manifest is the JSON index written last, making it the commit record:
// a store without a readable manifest is not a store.
type manifest struct {
	Format        int         `json:"format"`
	Epoch         uint64      `json:"epoch"`
	Semiring      string      `json:"semiring"`
	BlockCapacity int         `json:"block_capacity"`
	Tables        []tableMeta `json:"tables"`
}

type tableMeta struct {
	Name   string      `json:"name"`
	File   string      `json:"file"`
	Rows   int64       `json:"rows"`
	Cols   []colMeta   `json:"cols"`
	Blocks []blockMeta `json:"blocks"`
}

type colMeta struct {
	Name string `json:"name"`
	Type string `json:"type"` // "value" | "string"
}

// blockMeta is one block-index entry: location, row count, per-column
// zone maps, and whether every row is annotated 0S. Zone-map entries
// are rendered as strings (value.V's canonical form for value columns,
// the raw string for string columns) and re-parsed at Open.
type blockMeta struct {
	Rows    int      `json:"rows"`
	Off     int64    `json:"off"`
	Len     int      `json:"len"`
	Mins    []string `json:"mins"`
	Maxs    []string `json:"maxs"`
	AllZero bool     `json:"all_zero,omitempty"`
}

// Writer builds a new store directory. Tables are created with
// CreateTable and filled with Append; Close flushes trailing partial
// blocks, persists the variable registry, and finally commits the
// manifest atomically. Until Close returns nil the directory does not
// open as a store.
type Writer struct {
	dir      string
	fs       faultfs.FS
	capacity int
	kind     algebra.SemiringKind
	s        algebra.Semiring
	reg      *vars.Registry
	tables   []*TableWriter
	names    map[string]bool
	varOrd   map[string]uint64
	varNames []string
	closed   bool
}

// Create starts a new store in dir on the real filesystem (dir is
// created if missing; an existing manifest.json is refused — the format
// is append-only per ingest, not updatable in place). The registry is
// shared with the data producer so variables declared during generation
// are captured at Close.
func Create(dir string, kind algebra.SemiringKind, reg *vars.Registry, opts Options) (*Writer, error) {
	return CreateFS(dir, faultfs.OS(), kind, reg, opts)
}

// CreateFS is Create over an explicit filesystem: the one seam through
// which tests inject faults into an ingest, from a failed write to a
// crash that tears a write at an arbitrary point.
func CreateFS(dir string, fsys faultfs.FS, kind algebra.SemiringKind, reg *vars.Registry, opts Options) (*Writer, error) {
	if opts.BlockCapacity <= 0 {
		opts.BlockCapacity = DefaultBlockCapacity
	}
	if opts.BlockCapacity > maxBlockCapacity {
		return nil, fmt.Errorf("store: block capacity %d exceeds %d", opts.BlockCapacity, maxBlockCapacity)
	}
	if reg == nil {
		reg = vars.NewRegistry()
	}
	if err := fsys.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	if _, err := fsys.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("store: %s already contains a store", dir)
	}
	return &Writer{
		dir:      dir,
		fs:       fsys,
		capacity: opts.BlockCapacity,
		kind:     kind,
		s:        algebra.SemiringFor(kind),
		reg:      reg,
		names:    map[string]bool{},
		varOrd:   map[string]uint64{},
	}, nil
}

// Registry returns the writer's variable registry (for producers that
// declare fresh variables while generating rows).
func (w *Writer) Registry() *vars.Registry { return w.reg }

// CreateTable opens a new table for appending. Module-typed columns are
// refused: base tables hold only constant cells (aggregation results are
// query outputs, not storage), which is also what makes pushed-down σ
// atoms over stored tables always hintable.
func (w *Writer) CreateTable(name string, schema pvc.Schema) (*TableWriter, error) {
	if w.closed {
		return nil, fmt.Errorf("store: writer is closed")
	}
	if name == "" {
		return nil, fmt.Errorf("store: empty table name")
	}
	if w.names[name] {
		return nil, fmt.Errorf("store: duplicate table %q", name)
	}
	for _, c := range schema {
		if c.Type == pvc.TModule {
			return nil, fmt.Errorf("store: %s: module column %q cannot be stored", name, c.Name)
		}
	}
	w.names[name] = true
	file := fmt.Sprintf("t%04d.dat", len(w.tables))
	f, err := w.fs.Create(filepath.Join(w.dir, file))
	if err != nil {
		return nil, fmt.Errorf("store: create table %s: %w", name, err)
	}
	tw := &TableWriter{
		w: w, f: f,
		meta:   tableMeta{Name: name, File: file},
		schema: schema.Clone(),
		segs:   make([][]byte, len(schema)),
		vals:   make([][]value.V, len(schema)),
		strs:   make([][]string, len(schema)),
		mins:   make([]pvc.Cell, len(schema)),
		maxs:   make([]pvc.Cell, len(schema)),
	}
	w.tables = append(w.tables, tw)
	return tw, nil
}

// TableWriter appends rows to one table, cutting a block every
// BlockCapacity rows. Only the current block is held in memory — its
// columns and its annotations as appended, until the block is cut and
// each is encoded — so ingest streams.
type TableWriter struct {
	w      *Writer
	f      faultfs.File
	meta   tableMeta
	schema pvc.Schema
	err    error

	// current block
	segs   [][]byte    // encoded columns, at flush
	vals   [][]value.V // value columns
	strs   [][]string  // string columns
	coder  dictCoder
	anns   []expr.Expr
	annSeg []byte // the annotation segment, at flush
	rows   int
	mins   []pvc.Cell
	maxs   []pvc.Cell
	off    int64

	done bool
}

// Append adds one row. A nil annotation means the constant 1S, matching
// Relation.Insert.
func (tw *TableWriter) Append(ann expr.Expr, cells ...pvc.Cell) error {
	if tw.err != nil {
		return tw.err
	}
	if tw.done || tw.w.closed {
		return tw.fail(fmt.Errorf("store: %s: append after close", tw.meta.Name))
	}
	if len(cells) != len(tw.schema) {
		return tw.fail(fmt.Errorf("store: %s: %d cells for %d columns", tw.meta.Name, len(cells), len(tw.schema)))
	}
	if ann == nil {
		ann = annOneExpr
	}
	if ann.Kind() != expr.KindSemiring {
		return tw.fail(fmt.Errorf("store: %s: annotation %s is not a semiring expression", tw.meta.Name, expr.String(ann)))
	}
	for i, c := range cells {
		if err := tw.schema[i].CheckCell(c); err != nil {
			return tw.fail(fmt.Errorf("store: %s: %w", tw.meta.Name, err))
		}
		switch tw.schema[i].Type {
		case pvc.TValue:
			tw.vals[i] = append(tw.vals[i], c.Value())
		case pvc.TString:
			tw.strs[i] = append(tw.strs[i], c.Str())
		}
		if tw.rows == 0 {
			tw.mins[i], tw.maxs[i] = c, c
		} else {
			if c.Compare(tw.mins[i]) < 0 {
				tw.mins[i] = c
			}
			if c.Compare(tw.maxs[i]) > 0 {
				tw.maxs[i] = c
			}
		}
	}
	// The block is encoded at flush, but its variables take their
	// ordinals now, in the order the rows name them.
	tw.w.intern(ann)
	tw.anns = append(tw.anns, ann)
	tw.rows++
	tw.meta.Rows++
	if tw.rows >= tw.w.capacity {
		return tw.flush()
	}
	return nil
}

func (tw *TableWriter) fail(err error) error {
	tw.err = err
	return err
}

// flush assembles and writes the current block and records its index
// entry.
func (tw *TableWriter) flush() error {
	if tw.rows == 0 {
		return nil
	}
	for i, col := range tw.schema {
		if col.Type == pvc.TString {
			tw.segs[i] = tw.coder.appendColumn(tw.segs[i][:0], tw.strs[i])
		} else {
			tw.segs[i] = appendValues(tw.segs[i][:0], tw.vals[i], tw.mins[i].Value(), tw.maxs[i].Value())
		}
	}
	allZero := tw.encodeAnns()
	buf := make([]byte, 0, len(tw.annSeg)+64)
	buf = append(buf, blockMagic...)
	buf = binary.AppendUvarint(buf, uint64(tw.rows))
	buf = binary.AppendUvarint(buf, uint64(len(tw.segs)))
	for _, seg := range tw.segs {
		buf = binary.AppendUvarint(buf, uint64(len(seg)))
		buf = append(buf, seg...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(tw.annSeg)))
	buf = append(buf, tw.annSeg...)
	crc := crc32.ChecksumIEEE(buf)
	var tail [4]byte
	tail[0], tail[1], tail[2], tail[3] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	buf = append(buf, tail[:]...)
	if _, err := tw.f.Write(buf); err != nil {
		return tw.fail(fmt.Errorf("store: %s: write block: %w", tw.meta.Name, err))
	}
	bm := blockMeta{
		Rows:    tw.rows,
		Off:     tw.off,
		Len:     len(buf),
		Mins:    make([]string, len(tw.schema)),
		Maxs:    make([]string, len(tw.schema)),
		AllZero: allZero,
	}
	for i := range tw.schema {
		bm.Mins[i] = zoneString(tw.mins[i])
		bm.Maxs[i] = zoneString(tw.maxs[i])
	}
	tw.meta.Blocks = append(tw.meta.Blocks, bm)
	tw.off += int64(len(buf))
	tw.rows = 0
	for i := range tw.segs {
		tw.vals[i] = tw.vals[i][:0]
		tw.strs[i] = tw.strs[i][:0]
	}
	clear(tw.anns)
	tw.anns = tw.anns[:0]
	return nil
}

// encodeAnns encodes the current block's annotation segment into annSeg
// — one byte when every row is 1S, a packed run of ordinals when every
// row is a variable, the records otherwise — and reports whether every
// row is 0S.
func (tw *TableWriter) encodeAnns() (allZero bool) {
	allOne, allVar, allZero := true, true, true
	for _, ann := range tw.anns {
		one, zero := annClass(ann)
		_, isVar := ann.(expr.Var)
		allOne, allVar, allZero = allOne && one, allVar && isVar, allZero && zero
	}
	switch {
	case allOne:
		tw.annSeg = append(tw.annSeg[:0], annsOne)
	case allVar:
		tw.annSeg = appendOrdinals(tw.annSeg[:0], tw.anns, tw.w.ordinal)
	default:
		tw.annSeg = append(tw.annSeg[:0], annsRecords)
		for _, ann := range tw.anns {
			tw.annSeg = appendAnn(tw.annSeg, ann, tw.w.ordinal)
		}
	}
	return allZero
}

// finish flushes the trailing partial block, records the column types, and
// closes the data file.
func (tw *TableWriter) finish() error {
	if tw.done {
		return tw.err
	}
	tw.done = true
	if tw.err == nil {
		tw.err = tw.flush()
	}
	if tw.err == nil {
		for _, c := range tw.schema {
			ty := "value"
			if c.Type == pvc.TString {
				ty = "string"
			}
			tw.meta.Cols = append(tw.meta.Cols, colMeta{Name: c.Name, Type: ty})
		}
	}
	if err := tw.f.Close(); tw.err == nil && err != nil {
		tw.err = fmt.Errorf("store: %s: close: %w", tw.meta.Name, err)
	}
	return tw.err
}

// zoneString renders a zone-map endpoint: value cells in value.V's
// canonical text form, string cells raw.
func zoneString(c pvc.Cell) string {
	if c.Kind() == pvc.KindValue {
		return c.Value().String()
	}
	return c.Str()
}

// intern gives every variable ann names its ordinal, in the order it
// names them, so each variable's distribution is persisted (and an
// undeclared one is caught at commit).
func (w *Writer) intern(ann expr.Expr) {
	switch a := ann.(type) {
	case expr.Const:
	case expr.Var:
		w.ordinal(a.Name)
	default:
		for _, name := range expr.Vars(ann) {
			w.ordinal(name)
		}
	}
}

// ordinal interns a variable name, assigning the next ordinal on first
// sight.
func (w *Writer) ordinal(name string) uint64 {
	if o, ok := w.varOrd[name]; ok {
		return o
	}
	o := uint64(len(w.varNames))
	w.varOrd[name] = o
	w.varNames = append(w.varNames, name)
	return o
}

const manifestName = "manifest.json"
const varsName = "vars.dat"

// Close finishes every table, writes the vars file, then commits the
// manifest with a temp-file rename. On any error the manifest is not
// written and the directory stays unopenable.
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("store: writer already closed")
	}
	w.closed = true
	man := manifest{
		Format:        Format,
		Epoch:         1,
		Semiring:      semiringName(w.kind),
		BlockCapacity: w.capacity,
	}
	for _, tw := range w.tables {
		if err := tw.finish(); err != nil {
			return err
		}
		man.Tables = append(man.Tables, tw.meta)
	}
	if err := w.writeVars(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	return w.atomicWrite(filepath.Join(w.dir, manifestName), data)
}

// writeVars persists every referenced variable's distribution, in
// ordinal order, CRC-trailed. A referenced variable missing from the
// registry is an ingest bug surfaced here, before the manifest commits.
func (w *Writer) writeVars() error {
	if len(w.varNames) == 0 {
		return nil
	}
	buf := append([]byte{}, varsMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(w.varNames)))
	for _, name := range w.varNames {
		d, err := w.reg.Dist(name)
		if err != nil {
			return fmt.Errorf("store: variable %q referenced by an annotation is not declared", name)
		}
		buf = appendString(buf, name)
		pairs := d.Pairs()
		buf = binary.AppendUvarint(buf, uint64(len(pairs)))
		for _, p := range pairs {
			buf = appendValue(buf, p.V)
			buf = appendFloat64(buf, p.P)
		}
	}
	crc := crc32.ChecksumIEEE(buf)
	buf = append(buf, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
	return w.atomicWrite(filepath.Join(w.dir, varsName), buf)
}

func (w *Writer) atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := w.fs.WriteFile(tmp, data, 0o666); err != nil {
		return fmt.Errorf("store: write %s: %w", tmp, err)
	}
	if err := w.fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: commit %s: %w", path, err)
	}
	return nil
}

func semiringName(k algebra.SemiringKind) string {
	if k == algebra.Natural {
		return "natural"
	}
	return "boolean"
}

func parseSemiring(s string) (algebra.SemiringKind, error) {
	switch s {
	case "boolean":
		return algebra.Boolean, nil
	case "natural":
		return algebra.Natural, nil
	}
	return 0, fmt.Errorf("unknown semiring %q", s)
}

// parseZone re-parses a zone-map endpoint against the column type.
func parseZone(s string, ty pvc.ColType) (pvc.Cell, error) {
	if ty == pvc.TString {
		return pvc.StringCell(s), nil
	}
	v, err := value.Parse(s)
	if err != nil {
		return pvc.Cell{}, err
	}
	return pvc.ValueCell(v), nil
}
