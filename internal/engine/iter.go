package engine

// Step I — the rewriting ⟦·⟧ of Figure 4 — as a Volcano-style pull
// pipeline, the one evaluator of Q-algebra plans. Every operator is an
// Iterator with Open/Next/Close semantics:
//
//   - Scan streams the stored tuples lazily (no clone);
//   - δ is free (the child iterator is passed through, only the schema
//     is renamed at build time);
//   - σ and π̂ are fully pipelined;
//   - ⋈ and × share one hash-based pairIter that materializes only its
//     build (right) side, grown as its rows arrive — the build side
//     itself is chosen by the optimizer's physical pass, which commutes
//     the input with the smaller row bound to the right;
//   - π, ∪ and $ are sinks that group incrementally, retaining a copy of
//     one representative's group cells and the annotation expressions
//     per group instead of buffering their whole input; π and ∪ share
//     one sink (groupIter), ∪ being π over two inputs onto every column.
//
// Every operator's output schema and static checks come from one rule
// per operator (shapeOf, schema.go), which InferSchema applies too.
//
// Row order is part of the contract: ⋈/× emit left-major, π and ∪ in
// first-seen order, $ in its groups' text-key order (Tuple.Key), and the
// grouping sinks sum annotations in arrival order, so the expression
// trees of a result — which the goldens pin and the compilers' costs
// depend on — are a function of the plan and the stored row order alone.
//
// Lent cells and batches. A provider scan, π̂ and ⋈/× lend the Cells of
// each tuple until their next Next or Close (pvc.TupleIter); π̂ and ⋈/×
// refill one row of their own, so a row σ drops costs no slice. A scan
// may lend a whole block's vectors instead (pvc.BatchIter). σ and the
// analyze decorator pass their input's slice on; δ, a π̂ folded into a
// scan and a σ discharged into an exact scan build no iterator. The
// keyed operators (⋈/×, π/∪ and $, whose hash keys and their one table
// are keytab.go's) and drainRoot read their inputs through one cursor,
// which steps through a scan's blocks and reads each row off the
// vectors: π/∪, $, the ⋈/× build side and drainRoot drain it with
// drainRows, the ⋈/× probe side pulls it. When every key column of a
// block is coded — a dictionary-coded string or an integer column with
// a span (pvc.Batch) — π/∪ and $ find a row's group and the ⋈/× probe
// its bucket by the row's codes, keying and hashing each code
// combination once per block (codeIDs); the build side keys every row
// by bytes, its keys being mostly distinct. The sinks
// copy the group cells they keep and the probe the cells of a row that
// matches; the sites that keep a whole row past its loan copy it then
// (row.keep, told by lendsCells whether a tuple input lends):
// pairIter.buildTable and drainRoot, the root loop of StreamEvalPlan and
// StreamEvalPlanExplain.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// Iterator is a pull-based tuple stream over a Q-algebra plan. Open must
// be called once before the first Next; Next returns ok=false once the
// stream is exhausted; Close releases resources, is idempotent, and is
// safe to call even if Open was never called or Next never ran to
// exhaustion (early break).
type Iterator interface {
	Open() error
	Next() (t pvc.Tuple, ok bool, err error)
	Close() error
}

// batcher is a provider scan, or the analyze decorator around one:
// batches reports, after Open, whether nextBatch serves its rows.
type batcher interface {
	batches() bool
	nextBatch() (*pvc.Batch, bool, error)
}

// lendsCells reports whether the tuples it yields carry lent Cells: a
// provider scan's, π̂'s or ⋈/×'s own row, or one an operator hands on
// unchanged from its input.
func lendsCells(it Iterator) bool {
	switch v := it.(type) {
	case *providerIter, *pruneIter, *pairIter:
		return true
	case *selectIter:
		return lendsCells(v.child)
	case *countingIter:
		return lendsCells(v.in)
	}
	return false
}

// row is one input row as drainRows lends it to a per-row body: row i of
// batch b, or t when b is nil, annotated ann. batch counts the batches
// its cursor has taken, b's included; it is 0 for a tuple.
type row struct {
	t     pvc.Tuple
	b     *pvc.Batch
	i     int
	batch int
	ann   expr.Expr
}

func (r *row) cell(c int) pvc.Cell {
	if r.b != nil {
		return r.b.Cell(c, r.i)
	}
	return r.t.Cells[c]
}

// value returns the cell at c if it is a numeric constant.
func (r *row) value(c int) (value.V, bool) {
	if r.b != nil && r.b.Strs[c] == nil {
		return r.b.Vals[c][r.i], true
	}
	if cell := r.cell(c); cell.Kind() == pvc.KindValue {
		return cell.Value(), true
	}
	return value.V{}, false
}

// pick returns a new slice of the cells at idx.
func (r *row) pick(idx []int) []pvc.Cell {
	cells := make([]pvc.Cell, len(idx))
	for k, j := range idx {
		cells[k] = r.cell(j)
	}
	return cells
}

// appendCells appends every cell of the row to cells.
func (r *row) appendCells(cells []pvc.Cell) []pvc.Cell {
	if r.b == nil {
		return append(cells, r.t.Cells...)
	}
	cells = slices.Grow(cells, len(r.b.Vals))
	for c := range r.b.Vals {
		cells = append(cells, r.b.Cell(c, r.i))
	}
	return cells
}

// keep returns the row as its holder's own tuple: t, unless its producer
// lent it, or a copy of its cells.
func (r *row) keep(lent bool) pvc.Tuple {
	if r.b == nil && !lent {
		return r.t
	}
	return pvc.Tuple{Cells: r.appendCells(nil), Ann: r.ann}
}

// cursor steps through the rows of an opened input, lending each until
// the next step: off a batch's selection when it serves batches (a scan
// polls ctx between blocks), by Next otherwise, polling ctx per 256 rows.
type cursor struct {
	row
	ctx context.Context
	in  Iterator
	bt  batcher // in, when it serves batches
	sel []int32 // the rows of the batch in hand not yet stepped to
	n   int     // rows pulled by Next
}

func newCursor(ctx context.Context, in Iterator) cursor {
	c := cursor{ctx: ctx, in: in}
	if b, ok := in.(batcher); ok && b.batches() {
		c.bt = b
	}
	return c
}

// next steps to the next row; false at the end of the input.
func (c *cursor) next() (bool, error) {
	if c.bt == nil {
		if c.n++; c.n&255 == 0 && c.ctx.Err() != nil {
			return false, c.ctx.Err()
		}
		t, ok, err := c.in.Next()
		c.t, c.ann = t, t.Ann
		return ok, err
	}
	for len(c.sel) == 0 {
		b, ok, err := c.bt.nextBatch()
		if err != nil || !ok {
			return false, err
		}
		c.b, c.sel = b, b.Sel
		c.batch++
	}
	c.step()
	return true, nil
}

// step moves to the next row of the batch in hand.
func (c *cursor) step() {
	c.i, c.sel = int(c.sel[0]), c.sel[1:]
	c.ann = c.b.Anns[c.i]
}

// drainRows hands every row of the opened in to body, lent for the call,
// stepping through a batch in hand without a call to next per row.
func drainRows(ctx context.Context, in Iterator, body func(*row) error) error {
	c := newCursor(ctx, in)
	for {
		if len(c.sel) > 0 {
			c.step()
		} else if ok, err := c.next(); err != nil || !ok {
			return err
		}
		if err := body(&c.row); err != nil {
			return err
		}
	}
}

// iterBuilder compiles a Plan into an Iterator tree. Schema resolution
// and static checks (shapeOf) happen here, once per plan — which is why
// an unknown column is an error even over empty inputs.
type iterBuilder struct {
	ctx context.Context
	db  *pvc.Database
	s   algebra.Semiring

	// analyze wraps every operator iterator in a counting decorator and
	// collects the EXPLAIN ANALYZE tree; exKids accumulates the explain
	// nodes of the children of the node currently being built.
	analyze bool
	exKids  []*ExplainNode
}

func newIterBuilder(ctx context.Context, db *pvc.Database) *iterBuilder {
	return &iterBuilder{ctx: ctx, db: db, s: db.Semiring()}
}

// build returns the iterator together with the output schema and the
// result relation's name, composed from the operators' (σ(…), (…⋈…)).
// In analyze mode it additionally wraps the iterator in a counting
// decorator and threads an ExplainNode per operator: children built
// during buildNode land in b.exKids and are collected here, so the
// analyzed tree has one node per plan operator, as Explain's has.
func (b *iterBuilder) build(p Plan) (Iterator, pvc.Schema, string, error) {
	if !b.analyze {
		return b.buildNode(p)
	}
	parentKids := b.exKids
	b.exKids = nil
	it, schema, name, err := b.buildNode(p)
	kids := b.exKids
	b.exKids = parentKids
	if err != nil {
		return nil, nil, "", err
	}
	node := &ExplainNode{Op: opName(p), Name: name, RowsBound: RowBound(p, b.db), Children: kids}
	if pi, ok := it.(*pairIter); ok {
		pi.ex = node
	}
	b.exKids = append(b.exKids, node)
	return &countingIter{in: it, n: node}, schema, name, nil
}

// buildNode compiles one plan node (and, recursively via b.build, its
// inputs).
func (b *iterBuilder) buildNode(p Plan) (Iterator, pvc.Schema, string, error) {
	if n, ok := p.(*Scan); ok {
		if p, ok := b.db.Provider(n.Table); ok {
			return &providerIter{ctx: b.ctx, prov: p}, p.Schema(), n.Table, nil
		}
		r, err := b.db.Relation(n.Table)
		if err != nil {
			return nil, nil, "", err
		}
		return &sliceIter{tuples: r.Tuples}, r.Schema, r.Name, nil
	}
	in, sh, name, err := b.buildInputs(p)
	if err != nil {
		return nil, nil, "", err
	}
	switch p.(type) {
	case *Rename:
		return in[0], sh.schema, name, nil
	case *Select:
		// σ over a provider scan (possibly through π̂/δ, which keep column
		// positions): push the atoms down as advisory block-skipping
		// hints. Sound only when every atom compares constant cells —
		// then atom evaluation cannot error and cannot rescale
		// annotations, so a block whose rows all fail a hint (or are all
		// annotated 0S) contributes nothing to σ's output. A provider that
		// states its selection exact returns σ's output: σ is discharged.
		if pit, ok := unwrapCounting(in[0]).(*providerIter); ok && allConst(sh.atoms, sh.schema) {
			pit.pushDown(sh.atoms)
			if ex, ok := pit.prov.(pvc.ExactScanner); ok && ex.ExactHints(pit.hints) {
				return in[0], sh.schema, name, nil
			}
		}
		return &selectIter{child: in[0], atoms: sh.atoms, s: b.s}, sh.schema, name, nil
	case *Project, *Union:
		return &groupIter{ctx: b.ctx, s: b.s, in: in, cols: sh.cols}, sh.schema, name, nil
	case *Join, *Product:
		it := &pairIter{
			ctx: b.ctx, s: b.s, left: in[0], right: in[1],
			lKey: sh.lKey, rKey: sh.rKey, rCols: sh.rCols,
			rightLent: lendsCells(in[1]), row: make([]pvc.Cell, 0, len(sh.schema)),
		}
		return it, sh.schema, name, nil
	case *Prune:
		// π̂ directly over a provider scan folds into the scan itself:
		// the storage layer then decodes only the live columns. The fold
		// mutates the provider iterator in place, so any analyze
		// decorator around it stays valid.
		if pit, ok := unwrapCounting(in[0]).(*providerIter); ok {
			pit.project(sh.cols)
			return in[0], sh.schema, name, nil
		}
		return &pruneIter{child: in[0], idx: sh.cols, row: make([]pvc.Cell, len(sh.cols))}, sh.schema, name, nil
	default: // *GroupAgg; shapeOf rejected every other node
		it := &groupAggIter{
			ctx: b.ctx, s: b.s, child: in[0],
			gIdx: sh.cols, aggs: sh.aggs, grouped: len(sh.cols) > 0,
		}
		return it, sh.schema, name, nil
	}
}

// buildInputs builds p's inputs and applies p's schema rule (shapeOf) to
// their schemas. name is the result relation's name, composed from the
// inputs' names as σ(…) for a unary operator and (…⋈…) for a binary one.
func (b *iterBuilder) buildInputs(p Plan) ([]Iterator, opShape, string, error) {
	kids := Children(p)
	in := make([]Iterator, len(kids))
	schemas := make([]pvc.Schema, len(kids))
	names := make([]string, len(kids))
	for i, k := range kids {
		var err error
		if in[i], schemas[i], names[i], err = b.build(k); err != nil {
			return nil, opShape{}, "", err
		}
	}
	sh, err := shapeOf(p, schemas)
	if err != nil {
		return nil, opShape{}, "", err
	}
	if len(names) == 2 {
		return in, sh, "(" + names[0] + opName(p) + names[1] + ")", nil
	}
	return in, sh, opName(p) + "(" + names[0] + ")", nil
}

// providerIter adapts a pvc.TableProvider scan (e.g. an on-disk store
// table) to the engine Iterator contract. The builder folds π̂ into the
// scan (the backend then decodes only live columns) and pushes σ atoms
// down as block-skipping hints; both mutate the iterator before Open,
// which is what starts the underlying storage scan.
type providerIter struct {
	ctx      context.Context
	prov     pvc.TableProvider
	cols     []int // output → provider schema index; nil = full schema
	hints    []pvc.ScanHint
	dropZero bool
	it       pvc.TupleIter
}

func (it *providerIter) batches() bool {
	_, ok := it.it.(pvc.BatchIter)
	return ok
}

func (it *providerIter) nextBatch() (*pvc.Batch, bool, error) {
	return it.it.(pvc.BatchIter).NextBatch()
}

// project composes a π̂ column selection into the scan.
func (it *providerIter) project(idx []int) *providerIter {
	if it.cols == nil {
		it.cols = idx
		return it
	}
	cols := make([]int, len(idx))
	for i, j := range idx {
		cols[i] = it.cols[j]
	}
	it.cols = cols
	return it
}

// srcCol maps an output column position back to the provider's schema.
func (it *providerIter) srcCol(i int) int {
	if it.cols == nil {
		return i
	}
	return it.cols[i]
}

// pushDown converts resolved σ atoms into advisory scan hints (by
// provider column position, so δ renames above the scan are immaterial)
// and permits the backend to drop rows annotated with the constant 0S —
// exactly the rows the σ above will drop anyway.
func (it *providerIter) pushDown(atoms []selAtom) {
	for _, a := range atoms {
		h := pvc.ScanHint{Col: it.srcCol(a.li), Th: a.th, RightCol: -1}
		if a.rv != nil {
			h.Cell = a.rv
		} else {
			h.RightCol = it.srcCol(a.ri)
		}
		it.hints = append(it.hints, h)
	}
	it.dropZero = true
}

// allConst reports whether every atom compares constant cells only: no
// aggregation column on either side and a constant right operand. Such
// an atom cannot error and cannot rescale an annotation, so σ may hint
// it to a scan.
func allConst(atoms []selAtom, cs pvc.Schema) bool {
	for _, a := range atoms {
		if cs[a.li].Type == pvc.TModule || a.rv != nil && !a.rv.IsConst() ||
			a.rv == nil && cs[a.ri].Type == pvc.TModule {
			return false
		}
	}
	return true
}

func (it *providerIter) Open() error {
	sc, err := it.prov.NewScan(it.ctx, pvc.ScanOptions{
		Cols: it.cols, Hints: it.hints, DropZero: it.dropZero,
	})
	if err != nil {
		return err
	}
	it.it = sc
	return nil
}

func (it *providerIter) Next() (pvc.Tuple, bool, error) {
	if it.it == nil {
		return pvc.Tuple{}, false, fmt.Errorf("engine: scan of %s: Next before Open or after Close", it.prov.TableName())
	}
	return it.it.Next()
}

func (it *providerIter) Close() error {
	if it.it == nil {
		return nil
	}
	sc := it.it
	it.it = nil
	return sc.Close()
}

// sliceIter streams a stored relation's tuples in place — the lazy Scan.
type sliceIter struct {
	tuples []pvc.Tuple
	i      int
}

func (it *sliceIter) Open() error { return nil }

func (it *sliceIter) Next() (pvc.Tuple, bool, error) {
	if it.i >= len(it.tuples) {
		return pvc.Tuple{}, false, nil
	}
	t := it.tuples[it.i]
	it.i++
	return t, true, nil
}

func (it *sliceIter) Close() error { return nil }

// selectIter pipelines σ: atoms are resolved once at build time.
type selectIter struct {
	child Iterator
	atoms []selAtom
	s     algebra.Semiring
}

func (it *selectIter) Open() error { return it.child.Open() }

func (it *selectIter) Next() (pvc.Tuple, bool, error) {
	for {
		t, ok, err := it.child.Next()
		if err != nil || !ok {
			return pvc.Tuple{}, false, err
		}
		ann, keep, err := applySelAtoms(it.atoms, t, it.s)
		if err != nil {
			return pvc.Tuple{}, false, err
		}
		if keep {
			return pvc.Tuple{Cells: t.Cells, Ann: ann}, true, nil
		}
	}
}

func (it *selectIter) Close() error { return it.child.Close() }

// pruneIter pipelines π̂ into one lent row: no collapsing.
type pruneIter struct {
	child Iterator
	idx   []int
	row   []pvc.Cell
}

func (it *pruneIter) Open() error { return it.child.Open() }

func (it *pruneIter) Next() (pvc.Tuple, bool, error) {
	t, ok, err := it.child.Next()
	if err != nil || !ok {
		return pvc.Tuple{}, false, err
	}
	for i, j := range it.idx {
		it.row[i] = t.Cells[j]
	}
	return pvc.Tuple{Cells: it.row, Ann: t.Ann}, true, nil
}

func (it *pruneIter) Close() error { return it.child.Close() }

// pairIter is the shared hash-based ⋈/× iterator: the right child is the
// build side (materialized into a hash table that grows as its rows
// arrive, then closed), the left child is probed lazily in order — a
// block at a time when it serves batches, each row keyed straight off
// the vectors, or looked up by its codes when the block's key columns
// are coded, and copied out only when it matches — so emission is
// left-major, as a nested loop's would be. A × is a ⋈ with no key
// columns: every tuple hashes to the single empty-key bucket.
type pairIter struct {
	ctx         context.Context
	s           algebra.Semiring
	left, right Iterator
	lKey, rKey  []int
	rCols       []int
	rightLent   bool         // the build input lends its cells: copy them
	ex          *ExplainNode // analyze-mode counters; nil otherwise

	built   bool
	tab     keyTable      // join key → index into buckets
	buckets [][]pvc.Tuple // per join key: its build rows
	key     []byte        // reused key buffer of the build side
	probe   cursor        // over the left input
	ids     codeIDs       // a coded probe batch's rows → their buckets
	row     []pvc.Cell    // the output row, refilled per Next and lent
	nl      int           // the probe row's cells at the head of row
	bucket  []pvc.Tuple   // the probe row's matches
	bi      int
}

func (it *pairIter) Open() error { return it.left.Open() }

func (it *pairIter) buildTable() error {
	it.built = true
	it.probe = newCursor(it.ctx, it.left)
	if err := it.right.Open(); err != nil {
		return err
	}
	rows := 0
	err := drainRows(it.ctx, it.right, func(r *row) error {
		it.key = r.appendKey(it.key[:0], it.rKey)
		bi, added := it.tab.intern(it.key)
		if added {
			it.buckets = append(it.buckets, nil)
		}
		it.buckets[bi] = append(it.buckets[bi], r.keep(it.rightLent))
		rows++
		return nil
	})
	if err != nil {
		return err
	}
	if it.ex != nil {
		it.ex.BuildRows = int64(rows)
	}
	return it.right.Close()
}

func (it *pairIter) Next() (pvc.Tuple, bool, error) {
	if !it.built {
		if err := it.buildTable(); err != nil {
			return pvc.Tuple{}, false, err
		}
	}
	if len(it.buckets) == 0 {
		// The build side kept no row: no pair exists, so the left input
		// is never pulled.
		return pvc.Tuple{}, false, nil
	}
	// Step the probe to a left row with matches; its cells head the row.
	for it.bi == len(it.bucket) {
		if ok, err := it.probe.next(); err != nil || !ok {
			return pvc.Tuple{}, false, err
		}
		if bi := it.ids.find(&it.tab, &it.probe.row, it.lKey); bi >= 0 {
			it.bucket, it.bi = it.buckets[bi], 0
			it.row = it.probe.appendCells(it.row[:0])
			it.nl = len(it.row)
		}
	}
	rt := it.bucket[it.bi]
	it.bi++
	it.row = it.row[:it.nl]
	for _, j := range it.rCols {
		it.row = append(it.row, rt.Cells[j])
	}
	return pvc.Tuple{Cells: it.row, Ann: mulAnn(it.probe.ann, rt.Ann, it.s)}, true, nil
}

// Close closes both inputs; closing the built right one again is harmless.
func (it *pairIter) Close() error {
	it.ids.release()
	err := it.left.Close()
	if e := it.right.Close(); err == nil {
		err = e
	}
	return err
}

// groupIter is the sink of π and ∪: it drains its inputs in order on
// the first Next, grouping tuples by the cells at cols in encounter
// order and summing each group's annotations, and retains per group only
// a copy of those cells — allocated for a group's first tuple alone, so
// its inputs may lend theirs — and the annotation expressions. π has one
// input and keeps its projected columns; ∪ has two and keeps them whole.
type groupIter struct {
	ctx  context.Context
	s    algebra.Semiring
	in   []Iterator
	cols []int

	drained bool
	tab     keyTable     // group key → group id, in first-seen order
	ids     codeIDs      // a coded batch's rows → their group ids
	cells   [][]pvc.Cell // per group id
	sums    []*annSum    // per group id
	i       int
}

func (it *groupIter) Open() error {
	for _, in := range it.in {
		if err := in.Open(); err != nil {
			return err
		}
	}
	return nil
}

func (it *groupIter) drain() error {
	it.drained = true
	defer it.ids.release()
	add := func(r *row) error {
		g, added := it.ids.id(&it.tab, r, it.cols)
		if added {
			it.cells = append(it.cells, r.pick(it.cols))
			it.sums = append(it.sums, newAnnSum(it.s))
		}
		it.sums[g].add(r.ann)
		return nil
	}
	for _, in := range it.in {
		it.ids.reset() // each input's cursor counts its batches from 1
		if err := drainRows(it.ctx, in, add); err != nil {
			return err
		}
	}
	return nil
}

func (it *groupIter) Next() (pvc.Tuple, bool, error) {
	if !it.drained {
		if err := it.drain(); err != nil {
			return pvc.Tuple{}, false, err
		}
	}
	if it.i >= len(it.cells) {
		return pvc.Tuple{}, false, nil
	}
	g := it.i
	it.i++
	return pvc.Tuple{Cells: it.cells[g], Ann: it.sums[g].result()}, true, nil
}

func (it *groupIter) Close() error {
	var err error
	for _, in := range it.in {
		if e := in.Close(); err == nil {
			err = e
		}
	}
	return err
}

// aggColRef is an AggSpec with its Over column resolved (idx < 0 for
// COUNT, which reads no column).
type aggColRef struct {
	spec AggSpec
	idx  int
}

// gaGroup accumulates one $ group incrementally: the representative
// group-by cells and their text key (Tuple.Key, which orders $'s
// output), one constant-folding semimodule accumulator per aggregation,
// and the folded row-annotation sum for the Figure 4 non-emptiness
// condition. Constants fold at arrival (O(1) state for deterministic
// data); non-constant terms are retained in row arrival order.
type gaGroup struct {
	cells []pvc.Cell
	text  string
	aggs  []*modSum
	ann   *annSum
}

func newGaGroup(cells []pvc.Cell, s algebra.Semiring, aggs []aggColRef) *gaGroup {
	g := &gaGroup{cells: cells, text: pvc.Tuple{Cells: cells}.Key(), aggs: make([]*modSum, len(aggs)), ann: newAnnSum(s)}
	for ai, a := range aggs {
		g.aggs[ai] = newModSum(s, a.spec.Agg)
	}
	return g
}

// groupAggIter is the $ sink.
type groupAggIter struct {
	ctx     context.Context
	s       algebra.Semiring
	child   Iterator
	gIdx    []int
	aggs    []aggColRef
	grouped bool

	drained bool
	tab     keyTable   // group key → index into groups until drained
	ids     codeIDs    // a coded batch's rows → their indices into groups
	groups  []*gaGroup // in first-seen order, then in emission order
	i       int
}

func (it *groupAggIter) Open() error { return it.child.Open() }

func (it *groupAggIter) drain() error {
	it.drained = true
	defer it.ids.release()
	err := drainRows(it.ctx, it.child, func(r *row) error {
		gi, added := it.ids.id(&it.tab, r, it.gIdx)
		if added {
			it.groups = append(it.groups, newGaGroup(r.pick(it.gIdx), it.s, it.aggs))
		}
		g := it.groups[gi]
		for ai, a := range it.aggs {
			mv := value.Int(1)
			if a.spec.Agg != algebra.Count {
				var ok bool
				if mv, ok = r.value(a.idx); !ok {
					return fmt.Errorf("engine: $: aggregated cell %s is not a constant", r.cell(a.idx))
				}
			}
			if err := g.aggs[ai].add(r.ann, mv); err != nil {
				return fmt.Errorf("engine: $: %s←SUM(%s) of group %q: %w", a.spec.Out, a.spec.Over, g.text, err)
			}
		}
		g.ann.add(r.ann)
		return nil
	})
	if err != nil {
		return err
	}
	// Figure 4: without grouping, the result is one tuple (neutral values
	// on empty input) annotated 1K.
	if !it.grouped && len(it.groups) == 0 {
		it.groups = append(it.groups, newGaGroup(nil, it.s, it.aggs))
	}
	// Groups leave in text-key order; groups whose distinct cells render
	// to one text key, in first-seen order.
	slices.SortStableFunc(it.groups, func(a, b *gaGroup) int { return strings.Compare(a.text, b.text) })
	return nil
}

func (it *groupAggIter) Next() (pvc.Tuple, bool, error) {
	if !it.drained {
		if err := it.drain(); err != nil {
			return pvc.Tuple{}, false, err
		}
	}
	if it.i >= len(it.groups) {
		return pvc.Tuple{}, false, nil
	}
	g := it.groups[it.i]
	it.i++
	cells := make([]pvc.Cell, 0, len(g.cells)+len(it.aggs))
	cells = append(cells, g.cells...)
	for ai := range it.aggs {
		cells = append(cells, pvc.ExprCell(g.aggs[ai].result()))
	}
	var ann expr.Expr = expr.CInt(1)
	if it.grouped {
		ann = g.ann.neCond()
	}
	return pvc.Tuple{Cells: cells, Ann: ann}, true, nil
}

func (it *groupAggIter) Close() error { return it.child.Close() }

// StreamEvalPlan runs step I of query evaluation — computing the result
// tuples and their annotation and aggregation expressions (⟦·⟧) through
// the iterator tree — and returns the result pvc-table, sorted by tuple
// key, and the construction time.
func StreamEvalPlan(ctx context.Context, db *pvc.Database, plan Plan) (*pvc.Relation, time.Duration, error) {
	rel, d, _, err := streamEval(ctx, db, plan, false)
	return rel, d, err
}

// streamEval is the body of StreamEvalPlan and StreamEvalPlanExplain:
// with analyze set every operator is wrapped in a counting decorator and
// the explain tree is returned too.
func streamEval(ctx context.Context, db *pvc.Database, plan Plan, analyze bool) (*pvc.Relation, time.Duration, *ExplainNode, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, nil, err
	}
	t0 := time.Now()
	b := newIterBuilder(ctx, db)
	b.analyze = analyze
	it, schema, name, err := b.build(plan)
	if err != nil {
		return nil, 0, nil, err
	}
	defer it.Close()
	if err := it.Open(); err != nil {
		return nil, 0, nil, err
	}
	rel := pvc.NewRelation(name, schema)
	if err := drainRoot(ctx, it, rel); err != nil {
		return nil, 0, nil, err
	}
	var root *ExplainNode
	if analyze {
		root = b.exKids[0]
		root.finalize()
	}
	return rel, time.Since(t0), root, nil
}

// drainRoot appends every tuple of the opened root iterator to rel —
// copying cells a scan lent, since rel keeps them all — and sorts it.
func drainRoot(ctx context.Context, it Iterator, rel *pvc.Relation) error {
	lent := lendsCells(it)
	err := drainRows(ctx, it, func(r *row) error {
		rel.Tuples = append(rel.Tuples, r.keep(lent))
		return nil
	})
	if err != nil {
		return err
	}
	rel.Sort()
	return ctx.Err()
}
