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
//     build (right) side, pre-sized by the Estimator's cardinality
//     estimate — the build side itself is chosen by the optimizer's
//     physical pass, which commutes the smaller input to the right;
//   - σ directly above ⋈/× fuses its leading constant-comparison atoms
//     into the pairIter so failing pairs are rejected before any output
//     cells or annotation expressions are allocated;
//   - π, ∪ and $ are sinks that group incrementally, retaining one
//     representative cell slice and the annotation expressions per group
//     instead of buffering their whole input.
//
// Row order is part of the contract: ⋈/× emit left-major, π and ∪ in
// first-seen order, $ in group-key order, and the grouping sinks sum
// annotations in arrival order, so the expression trees of a result —
// which the goldens pin and the compilers' costs depend on — are a
// function of the plan and the stored row order alone.
//
// Lent cells. A provider scan lends the Cells slice of each tuple until
// its next Next or Close (pvc.TupleIter), and σ, δ and the analyze
// decorator pass that slice through untouched; every other operator
// emits cells it allocated. lendsCells decides at build time, from the
// iterator tree, whether an input lends, and the sites that keep a tuple
// across a Next of the iterator that produced it copy exactly then — so
// plans over in-memory relations (sliceIter) copy nothing:
//
//   - pairIter.buildTable (the build side; the probe tuple is only held
//     until the next probe pull, and output cells are fresh);
//   - unionIter.drain's first-seen cells per group;
//   - drainRoot, the root loop of StreamEvalPlan and
//     StreamEvalPlanExplain, and Iterate, whose caller may keep a row;
//   - outside this file: providerEstimate (keeps no tuple, only cell
//     keys).
//
// π, π̂ and $ already copy the cells they keep into slices of their own.

import (
	"context"
	"fmt"
	"iter"
	"sort"
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

// ctxPollMask throttles context polling in drain loops to every 256 rows.
const ctxPollMask = 255

// lendsCells reports whether the tuples it yields carry Cells lent by a
// provider scan: the scan itself, or an operator that hands its input's
// slice on unchanged.
func lendsCells(it Iterator) bool {
	switch v := it.(type) {
	case *providerIter:
		return true
	case *selectIter:
		return lendsCells(v.child)
	case *countingIter:
		return lendsCells(v.in)
	}
	return false
}

// owned returns t as the holder's own: a copy of the cells when the
// producer lent them, t itself otherwise.
func owned(t pvc.Tuple, lent bool) pvc.Tuple {
	if lent {
		return t.Clone()
	}
	return t
}

// iterBuilder compiles a Plan into an Iterator tree. All schema
// resolution and static checks happen here, once per plan — which is why
// an unknown column is an error even over empty inputs. The Estimator is
// created lazily on the first ⋈/× so plans without pair operators never
// pay for table statistics.
type iterBuilder struct {
	ctx context.Context
	db  *pvc.Database
	s   algebra.Semiring
	est *Estimator

	// analyze wraps every operator iterator in a counting decorator and
	// collects the EXPLAIN ANALYZE tree; exKids accumulates the explain
	// nodes of the children of the node currently being built.
	analyze bool
	exKids  []*ExplainNode
}

func newIterBuilder(ctx context.Context, db *pvc.Database) *iterBuilder {
	return &iterBuilder{ctx: ctx, db: db, s: db.Semiring()}
}

func (b *iterBuilder) estimator() *Estimator {
	if b.est == nil {
		b.est = NewEstimator(b.db)
	}
	return b.est
}

// build returns the iterator together with the output schema and the
// result relation's name, composed from the operators' (σ(…), (…⋈…)).
// In analyze mode it additionally wraps the iterator in a counting
// decorator and threads an ExplainNode per operator: children built
// during buildNode land in b.exKids and are collected here. A σ fused
// into a ⋈/× produces one node covering both (its children are the
// pair's inputs), mirroring the single physical operator that runs.
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
	node := &ExplainNode{Op: opName(p), Name: name, EstRows: b.estimator().Estimate(p).Rows, Children: kids}
	switch v := it.(type) {
	case *pairIter:
		v.ex = node
		node.EstBuildRows = v.estBuild
		node.FusedAtoms = len(v.fused)
	case *selectIter:
		if pi, ok := v.child.(*pairIter); ok {
			pi.ex = node
			node.EstBuildRows = pi.estBuild
			node.FusedAtoms = len(pi.fused)
		}
	}
	b.exKids = append(b.exKids, node)
	return &countingIter{in: it, n: node}, schema, name, nil
}

// buildNode compiles one plan node (and, recursively via b.build, its
// inputs).
func (b *iterBuilder) buildNode(p Plan) (Iterator, pvc.Schema, string, error) {
	switch n := p.(type) {
	case *Scan:
		if p, ok := b.db.Provider(n.Table); ok {
			return &providerIter{ctx: b.ctx, prov: p}, p.Schema(), n.Table, nil
		}
		r, err := b.db.Relation(n.Table)
		if err != nil {
			return nil, nil, "", err
		}
		return &sliceIter{tuples: r.Tuples}, r.Schema, r.Name, nil

	case *Rename:
		child, cs, cname, err := b.build(n.Input)
		if err != nil {
			return nil, nil, "", err
		}
		i := cs.Index(n.From)
		if i < 0 {
			return nil, nil, "", fmt.Errorf("engine: δ: unknown column %q in %s", n.From, n.Input)
		}
		if j := cs.Index(n.To); j >= 0 {
			return nil, nil, "", fmt.Errorf("engine: δ: column %q already exists", n.To)
		}
		schema := cs.Clone()
		schema[i].Name = n.To
		return child, schema, fmt.Sprintf("δ(%s)", cname), nil

	case *Select:
		switch n.Input.(type) {
		case *Join, *Product:
			return b.buildFusedSelect(n)
		}
		child, cs, cname, err := b.build(n.Input)
		if err != nil {
			return nil, nil, "", err
		}
		atoms, err := resolveSelAtoms(n.Pred, cs)
		if err != nil {
			return nil, nil, "", err
		}
		// σ over a provider scan (possibly through π̂/δ, which keep column
		// positions): push the atoms down as advisory block-skipping
		// hints. Sound only when no atom touches a module column — then
		// atom evaluation cannot error and cannot rescale annotations, so
		// a block whose rows all fail a hint (or are all annotated 0S)
		// contributes nothing to σ's output.
		if pit, ok := unwrapCounting(child).(*providerIter); ok && allAtomsHintable(atoms, cs) {
			pit.pushDown(atoms)
		}
		return &selectIter{child: child, atoms: atoms, s: b.s}, cs, fmt.Sprintf("σ(%s)", cname), nil

	case *Project:
		child, cs, cname, err := b.build(n.Input)
		if err != nil {
			return nil, nil, "", err
		}
		idx := make([]int, len(n.Cols))
		schema := make(pvc.Schema, len(n.Cols))
		for i, c := range n.Cols {
			j := cs.Index(c)
			if j < 0 {
				return nil, nil, "", fmt.Errorf("engine: π: unknown column %q", c)
			}
			if cs[j].Type == pvc.TModule {
				return nil, nil, "", fmt.Errorf("engine: π: column %q is an aggregation attribute (Definition 5 constraint 1)", c)
			}
			idx[i] = j
			schema[i] = cs[j]
		}
		it := &projectIter{ctx: b.ctx, s: b.s, child: child, idx: idx}
		return it, schema, fmt.Sprintf("π(%s)", cname), nil

	case *Prune:
		child, cs, cname, err := b.build(n.Input)
		if err != nil {
			return nil, nil, "", err
		}
		idx := make([]int, len(n.Cols))
		schema := make(pvc.Schema, len(n.Cols))
		for i, c := range n.Cols {
			j := cs.Index(c)
			if j < 0 {
				return nil, nil, "", fmt.Errorf("engine: π̂: unknown column %q", c)
			}
			idx[i] = j
			schema[i] = cs[j]
		}
		// π̂ directly over a provider scan folds into the scan itself:
		// the storage layer then decodes only the live columns. The fold
		// mutates the provider iterator in place, so any analyze
		// decorator around it stays valid.
		if pit, ok := unwrapCounting(child).(*providerIter); ok {
			pit.project(idx)
			return child, schema, fmt.Sprintf("π̂(%s)", cname), nil
		}
		return &pruneIter{child: child, idx: idx}, schema, fmt.Sprintf("π̂(%s)", cname), nil

	case *Join, *Product:
		it, schema, name, _, err := b.buildPair(p)
		return it, schema, name, err

	case *Union:
		lIt, ls, lname, err := b.build(n.L)
		if err != nil {
			return nil, nil, "", err
		}
		rIt, rs, rname, err := b.build(n.R)
		if err != nil {
			return nil, nil, "", err
		}
		if !ls.Equal(rs) {
			return nil, nil, "", fmt.Errorf("engine: ∪: incompatible schemas %v and %v", ls.Names(), rs.Names())
		}
		for _, c := range ls {
			if c.Type == pvc.TModule {
				return nil, nil, "", fmt.Errorf("engine: ∪: aggregation column %q (Definition 5 constraint 2)", c.Name)
			}
		}
		it := &unionIter{ctx: b.ctx, s: b.s, in: [2]Iterator{lIt, rIt}, lent: [2]bool{lendsCells(lIt), lendsCells(rIt)}}
		return it, ls, fmt.Sprintf("(%s∪%s)", lname, rname), nil

	case *GroupAgg:
		child, cs, cname, err := b.build(n.Input)
		if err != nil {
			return nil, nil, "", err
		}
		gIdx := make([]int, len(n.GroupBy))
		for i, g := range n.GroupBy {
			j := cs.Index(g)
			if j < 0 {
				return nil, nil, "", fmt.Errorf("engine: $: unknown group-by column %q", g)
			}
			if cs[j].Type == pvc.TModule {
				return nil, nil, "", fmt.Errorf("engine: $: group-by column %q is an aggregation attribute", g)
			}
			gIdx[i] = j
		}
		aggs := make([]aggColRef, len(n.Aggs))
		for i, a := range n.Aggs {
			idx := -1
			if a.Agg != algebra.Count {
				idx = cs.Index(a.Over)
				if idx < 0 {
					return nil, nil, "", fmt.Errorf("engine: $: unknown aggregation column %q", a.Over)
				}
				if cs[idx].Type != pvc.TValue {
					return nil, nil, "", fmt.Errorf("engine: $: aggregation over non-value column %q", a.Over)
				}
			}
			aggs[i] = aggColRef{a, idx}
		}
		schema := make(pvc.Schema, 0, len(gIdx)+len(aggs))
		for _, j := range gIdx {
			schema = append(schema, cs[j])
		}
		for _, a := range aggs {
			schema = append(schema, pvc.Col{Name: a.spec.Out, Type: pvc.TModule, Agg: a.spec.Agg})
		}
		it := &groupAggIter{
			ctx: b.ctx, s: b.s, child: child,
			gIdx: gIdx, aggs: aggs, grouped: len(n.GroupBy) > 0,
		}
		return it, schema, fmt.Sprintf("$(%s)", cname), nil

	default:
		return nil, nil, "", fmt.Errorf("engine: streaming: unsupported plan node %T", p)
	}
}

// pairRef addresses one cell of a ⋈/× output tuple without materializing
// it: side 0 is the probe (left) input, side 1 the build (right) input.
type pairRef struct{ side, idx int }

// pairAtom is a σ comparison fused into a pairIter: both operands are
// statically known to be constant cells, so the atom filters (lt, rt)
// pairs before the output tuple is allocated.
type pairAtom struct {
	l  pairRef
	th value.Theta
	r  pairRef   // valid when rv == nil
	rv *pvc.Cell // right constant; nil when comparing two columns
}

func pairCell(lt, rt pvc.Tuple, r pairRef) pvc.Cell {
	if r.side == 0 {
		return lt.Cells[r.idx]
	}
	return rt.Cells[r.idx]
}

// buildPair compiles a *Join or *Product into a pairIter, also returning
// the output schema, relation name, and the cell-address table used by
// σ fusion.
func (b *iterBuilder) buildPair(p Plan) (*pairIter, pvc.Schema, string, []pairRef, error) {
	var lp, rp Plan
	join := false
	switch n := p.(type) {
	case *Join:
		lp, rp, join = n.L, n.R, true
	case *Product:
		lp, rp = n.L, n.R
	}
	lIt, ls, lname, err := b.build(lp)
	if err != nil {
		return nil, nil, "", nil, err
	}
	rIt, rs, rname, err := b.build(rp)
	if err != nil {
		return nil, nil, "", nil, err
	}
	var shared []string
	if join {
		for _, c := range ls {
			if j := rs.Index(c.Name); j >= 0 {
				if c.Type == pvc.TModule || rs[j].Type == pvc.TModule {
					return nil, nil, "", nil, fmt.Errorf("engine: ⋈: aggregation column %q cannot be a join key", c.Name)
				}
				shared = append(shared, c.Name)
			}
		}
	} else {
		for _, c := range rs {
			if ls.Index(c.Name) >= 0 {
				return nil, nil, "", nil, fmt.Errorf("engine: ×: duplicate column %q (rename first)", c.Name)
			}
		}
	}
	schema := ls.Clone()
	var rCols []int
	for j, c := range rs {
		if join && ls.Index(c.Name) >= 0 {
			continue
		}
		schema = append(schema, c)
		rCols = append(rCols, j)
	}
	lKey := make([]int, len(shared))
	rKey := make([]int, len(shared))
	for i, name := range shared {
		lKey[i] = ls.Index(name)
		rKey[i] = rs.Index(name)
	}
	refs := make([]pairRef, len(schema))
	for i := range ls {
		refs[i] = pairRef{0, i}
	}
	for i, j := range rCols {
		refs[len(ls)+i] = pairRef{1, j}
	}
	// Pre-size the build side from the Estimator's cardinality estimate.
	buildCap := 0
	estBuild := b.estimator().Estimate(rp).Rows
	if rows := estBuild; rows > 0 {
		if rows > 1<<20 {
			rows = 1 << 20
		}
		buildCap = int(rows)
	}
	name := fmt.Sprintf("(%s×%s)", lname, rname)
	if join {
		name = fmt.Sprintf("(%s⋈%s)", lname, rname)
	}
	it := &pairIter{
		ctx: b.ctx, s: b.s, left: lIt, right: rIt,
		lKey: lKey, rKey: rKey, rCols: rCols, buildCap: buildCap, estBuild: estBuild,
		rightLent: lendsCells(rIt),
	}
	return it, schema, name, refs, nil
}

// buildFusedSelect compiles σ directly above ⋈/×, pushing the leading
// run of constant-comparison atoms into the pairIter (fused atoms are a
// prefix of the conjunction, so per-tuple atom order, short-circuiting
// and error precedence are those of an unfused σ). Atoms from the first
// aggregation-column comparison onward stay in a residual selectIter
// above the pair.
func (b *iterBuilder) buildFusedSelect(n *Select) (Iterator, pvc.Schema, string, error) {
	pit, schema, name, refs, err := b.buildPair(n.Input)
	if err != nil {
		return nil, nil, "", err
	}
	atoms, err := resolveSelAtoms(n.Pred, schema)
	if err != nil {
		return nil, nil, "", err
	}
	k := 0
	for k < len(atoms) {
		a := atoms[k]
		if schema[a.li].Type == pvc.TModule {
			break // left operand can hold an expression cell
		}
		if a.rv != nil {
			if !a.rv.IsConst() {
				break
			}
		} else if schema[a.ri].Type == pvc.TModule {
			break
		}
		k++
	}
	for _, a := range atoms[:k] {
		fa := pairAtom{l: refs[a.li], th: a.th, rv: a.rv}
		if a.rv == nil {
			fa.r = refs[a.ri]
		}
		pit.fused = append(pit.fused, fa)
	}
	name = fmt.Sprintf("σ(%s)", name)
	if k == len(atoms) {
		// Every atom fused: the σ-level zero-annotation drop moves into
		// the pair iterator.
		pit.dropZero = true
		return pit, schema, name, nil
	}
	return &selectIter{child: pit, atoms: atoms[k:], s: b.s}, schema, name, nil
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

// allAtomsHintable reports whether every σ atom compares constant cells
// only — the condition under which atom evaluation cannot error, cannot
// rescale an annotation, and therefore block skipping plus zero-row
// dropping below the σ is bit-for-bit sound.
func allAtomsHintable(atoms []selAtom, cs pvc.Schema) bool {
	for _, a := range atoms {
		if cs[a.li].Type == pvc.TModule {
			return false
		}
		if a.rv != nil {
			if !a.rv.IsConst() {
				return false
			}
		} else if cs[a.ri].Type == pvc.TModule {
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

// pruneIter pipelines π̂: per-tuple column projection, no collapsing.
type pruneIter struct {
	child Iterator
	idx   []int
}

func (it *pruneIter) Open() error { return it.child.Open() }

func (it *pruneIter) Next() (pvc.Tuple, bool, error) {
	t, ok, err := it.child.Next()
	if err != nil || !ok {
		return pvc.Tuple{}, false, err
	}
	cells := make([]pvc.Cell, len(it.idx))
	for i, j := range it.idx {
		cells[i] = t.Cells[j]
	}
	return pvc.Tuple{Cells: cells, Ann: t.Ann}, true, nil
}

func (it *pruneIter) Close() error { return it.child.Close() }

// pairIter is the shared hash-based ⋈/× iterator: the right child is the
// build side (materialized into a hash table pre-sized by the Estimator,
// then closed), the left child is probed lazily in order, so emission is
// left-major, as a nested loop's would be. A × is a ⋈ with no key
// columns: every tuple hashes to the single empty-key bucket. Fused σ
// atoms reject pairs before output cells or the product annotation are
// constructed.
type pairIter struct {
	ctx         context.Context
	s           algebra.Semiring
	left, right Iterator
	lKey, rKey  []int
	rCols       []int
	fused       []pairAtom
	dropZero    bool
	buildCap    int
	estBuild    float64      // Estimator's build-side row prediction
	rightLent   bool         // the build input lends its cells: copy them
	ex          *ExplainNode // analyze-mode counters; nil otherwise

	built       bool
	rightClosed bool
	idx         map[string]int // join key → index into buckets
	buckets     [][]pvc.Tuple
	key         []byte // reused key buffer of both sides
	cur         pvc.Tuple
	bucket      []pvc.Tuple
	bi          int
}

func (it *pairIter) Open() error { return it.left.Open() }

func (it *pairIter) buildTable() error {
	it.built = true
	if err := it.right.Open(); err != nil {
		return err
	}
	it.idx = make(map[string]int, it.buildCap)
	if len(it.rKey) == 0 && it.buildCap > 0 {
		// ×: everything lands in one bucket — pre-size it.
		it.idx[""] = 0
		it.buckets = [][]pvc.Tuple{make([]pvc.Tuple, 0, it.buildCap)}
	}
	rows := 0
	for n := 0; ; n++ {
		rt, ok, err := it.right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		it.key = appendJoinKey(it.key[:0], rt, it.rKey)
		bi, seen := it.idx[string(it.key)]
		if !seen {
			bi = len(it.buckets)
			it.idx[string(it.key)] = bi
			it.buckets = append(it.buckets, nil)
		}
		it.buckets[bi] = append(it.buckets[bi], owned(rt, it.rightLent))
		rows++
		if n&ctxPollMask == ctxPollMask {
			if err := it.ctx.Err(); err != nil {
				return err
			}
		}
	}
	if it.ex != nil {
		it.ex.BuildRows = int64(rows)
	}
	it.rightClosed = true
	return it.right.Close()
}

func (it *pairIter) Next() (pvc.Tuple, bool, error) {
	if !it.built {
		if err := it.buildTable(); err != nil {
			return pvc.Tuple{}, false, err
		}
	}
	for {
		for it.bi < len(it.bucket) {
			rt := it.bucket[it.bi]
			it.bi++
			lt := it.cur
			pass := true
			for _, a := range it.fused {
				lc := pairCell(lt, rt, a.l)
				var rc pvc.Cell
				if a.rv != nil {
					rc = *a.rv
				} else {
					rc = pairCell(lt, rt, a.r)
				}
				if !lc.Satisfies(a.th, rc) {
					pass = false
					break
				}
			}
			if !pass {
				if it.ex != nil {
					it.ex.FusedRejects++
				}
				continue
			}
			ann := expr.Simplify(expr.Product(lt.Ann, rt.Ann), it.s)
			if it.dropZero {
				if c, isConst := ann.(expr.Const); isConst && c.V == it.s.Zero() {
					continue
				}
			}
			cells := make([]pvc.Cell, 0, len(lt.Cells)+len(it.rCols))
			cells = append(cells, lt.Cells...)
			for _, j := range it.rCols {
				cells = append(cells, rt.Cells[j])
			}
			return pvc.Tuple{Cells: cells, Ann: ann}, true, nil
		}
		lt, ok, err := it.left.Next()
		if err != nil || !ok {
			return pvc.Tuple{}, false, err
		}
		it.cur = lt
		it.key = appendJoinKey(it.key[:0], lt, it.lKey)
		it.bucket = nil
		if bi, ok := it.idx[string(it.key)]; ok {
			it.bucket = it.buckets[bi]
		}
		it.bi = 0
	}
}

func (it *pairIter) Close() error {
	err := it.left.Close()
	if !it.rightClosed {
		it.rightClosed = true
		if e := it.right.Close(); err == nil {
			err = e
		}
	}
	return err
}

// unionIter is the ∪ sink: it drains both sides on the first Next,
// grouping duplicate tuples in encounter order (left side first) and
// retaining only one representative cell slice plus the annotation
// expressions per group; results are emitted incrementally.
type unionIter struct {
	ctx  context.Context
	s    algebra.Semiring
	in   [2]Iterator // left, right
	lent [2]bool     // the side lends its cells: copy first-seen ones

	drained    bool
	order      []string
	groupCells map[string][]pvc.Cell
	groupAnns  map[string]*annSum
	i          int
}

func (it *unionIter) Open() error {
	if err := it.in[0].Open(); err != nil {
		return err
	}
	return it.in[1].Open()
}

func (it *unionIter) drain() error {
	it.drained = true
	it.groupCells = map[string][]pvc.Cell{}
	it.groupAnns = map[string]*annSum{}
	var key []byte
	for si, side := range it.in {
		for n := 0; ; n++ {
			t, ok, err := side.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			key = t.AppendKey(key[:0])
			sum, seen := it.groupAnns[string(key)]
			if !seen {
				k := string(key)
				sum = newAnnSum(it.s)
				it.order = append(it.order, k)
				it.groupCells[k] = owned(t, it.lent[si]).Cells
				it.groupAnns[k] = sum
			}
			sum.add(t.Ann)
			if n&ctxPollMask == ctxPollMask {
				if err := it.ctx.Err(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (it *unionIter) Next() (pvc.Tuple, bool, error) {
	if !it.drained {
		if err := it.drain(); err != nil {
			return pvc.Tuple{}, false, err
		}
	}
	if it.i >= len(it.order) {
		return pvc.Tuple{}, false, nil
	}
	key := it.order[it.i]
	it.i++
	return pvc.Tuple{Cells: it.groupCells[key], Ann: it.groupAnns[key].result()}, true, nil
}

func (it *unionIter) Close() error {
	err := it.in[0].Close()
	if e := it.in[1].Close(); err == nil {
		err = e
	}
	return err
}

// projectIter is the π sink: like unionIter it groups in encounter
// order, but projects onto idx first. The group key is computed directly
// from the input cells — the projected cell slice is only allocated for
// the first tuple of each group.
type projectIter struct {
	ctx   context.Context
	s     algebra.Semiring
	child Iterator
	idx   []int

	drained    bool
	order      []string
	groupCells map[string][]pvc.Cell
	groupAnns  map[string]*annSum
	i          int
}

func (it *projectIter) Open() error { return it.child.Open() }

func (it *projectIter) drain() error {
	it.drained = true
	it.groupCells = map[string][]pvc.Cell{}
	it.groupAnns = map[string]*annSum{}
	var key []byte
	for n := 0; ; n++ {
		t, ok, err := it.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		key = appendJoinKey(key[:0], t, it.idx)
		sum, seen := it.groupAnns[string(key)]
		if !seen {
			cells := make([]pvc.Cell, len(it.idx))
			for i, j := range it.idx {
				cells[i] = t.Cells[j]
			}
			k := string(key)
			sum = newAnnSum(it.s)
			it.order = append(it.order, k)
			it.groupCells[k] = cells
			it.groupAnns[k] = sum
		}
		sum.add(t.Ann)
		if n&ctxPollMask == ctxPollMask {
			if err := it.ctx.Err(); err != nil {
				return err
			}
		}
	}
}

func (it *projectIter) Next() (pvc.Tuple, bool, error) {
	if !it.drained {
		if err := it.drain(); err != nil {
			return pvc.Tuple{}, false, err
		}
	}
	if it.i >= len(it.order) {
		return pvc.Tuple{}, false, nil
	}
	key := it.order[it.i]
	it.i++
	return pvc.Tuple{Cells: it.groupCells[key], Ann: it.groupAnns[key].result()}, true, nil
}

func (it *projectIter) Close() error { return it.child.Close() }

// aggColRef is an AggSpec with its Over column resolved (idx < 0 for
// COUNT, which reads no column).
type aggColRef struct {
	spec AggSpec
	idx  int
}

// gaGroup accumulates one $ group incrementally: the representative
// group-by cells, one constant-folding semimodule accumulator per
// aggregation, and the folded row-annotation sum for the Figure 4
// non-emptiness condition. Constants fold at arrival (O(1) state for
// deterministic data); non-constant terms are retained in row arrival
// order.
type gaGroup struct {
	cells []pvc.Cell
	aggs  []*modSum
	ann   *annSum
}

func newGaGroup(cells []pvc.Cell, s algebra.Semiring, aggs []aggColRef) *gaGroup {
	g := &gaGroup{cells: cells, aggs: make([]*modSum, len(aggs)), ann: newAnnSum(s)}
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
	groups  map[string]*gaGroup
	order   []string
	i       int
}

func (it *groupAggIter) Open() error { return it.child.Open() }

func (it *groupAggIter) drain() error {
	it.drained = true
	it.groups = map[string]*gaGroup{}
	var key []byte
	for n := 0; ; n++ {
		t, ok, err := it.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		key = appendJoinKey(key[:0], t, it.gIdx)
		g, seen := it.groups[string(key)]
		if !seen {
			cells := make([]pvc.Cell, len(it.gIdx))
			for i, j := range it.gIdx {
				cells[i] = t.Cells[j]
			}
			g = newGaGroup(cells, it.s, it.aggs)
			k := string(key)
			it.groups[k] = g
			it.order = append(it.order, k)
		}
		for ai, a := range it.aggs {
			var mv value.V
			if a.spec.Agg == algebra.Count {
				mv = value.Int(1)
			} else {
				c := t.Cells[a.idx]
				if c.Kind() != pvc.KindValue {
					return fmt.Errorf("engine: $: aggregated cell %s is not a constant", c)
				}
				mv = c.Value()
			}
			g.aggs[ai].add(t.Ann, mv)
		}
		g.ann.add(t.Ann)
		if n&ctxPollMask == ctxPollMask {
			if err := it.ctx.Err(); err != nil {
				return err
			}
		}
	}
	// Figure 4: without grouping, the result is one tuple (neutral values
	// on empty input) annotated 1K.
	if !it.grouped && len(it.order) == 0 {
		it.order = append(it.order, "")
		it.groups[""] = newGaGroup(nil, it.s, it.aggs)
	}
	sort.Strings(it.order)
	return nil
}

func (it *groupAggIter) Next() (pvc.Tuple, bool, error) {
	if !it.drained {
		if err := it.drain(); err != nil {
			return pvc.Tuple{}, false, err
		}
	}
	if it.i >= len(it.order) {
		return pvc.Tuple{}, false, nil
	}
	g := it.groups[it.order[it.i]]
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

// NewIterator compiles a plan into a streaming iterator and its output
// schema. The context is captured for cancellation checks inside drain
// and build loops; the caller owns Open/Next/Close.
func NewIterator(ctx context.Context, db *pvc.Database, plan Plan) (Iterator, pvc.Schema, error) {
	it, schema, _, err := newIterBuilder(ctx, db).build(plan)
	return it, schema, err
}

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
	for n := 0; ; n++ {
		t, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		rel.Tuples = append(rel.Tuples, owned(t, lent))
		if n&ctxPollMask == ctxPollMask {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	rel.Sort()
	return ctx.Err()
}

// Iterate exposes the iterator tree as an iter.Seq2: tuples arrive in
// pipeline (construction) order, NOT in the sorted order StreamEvalPlan
// returns. Breaking out of the range closes the iterator tree; a non-nil
// error is yielded at most once, as the final element.
func Iterate(ctx context.Context, db *pvc.Database, plan Plan) iter.Seq2[pvc.Tuple, error] {
	return func(yield func(pvc.Tuple, error) bool) {
		it, _, _, err := newIterBuilder(ctx, db).build(plan)
		if err != nil {
			yield(pvc.Tuple{}, err)
			return
		}
		defer it.Close()
		if err := it.Open(); err != nil {
			yield(pvc.Tuple{}, err)
			return
		}
		lent := lendsCells(it)
		for n := 0; ; n++ {
			t, ok, err := it.Next()
			if err != nil {
				yield(pvc.Tuple{}, err)
				return
			}
			if !ok {
				return
			}
			if !yield(owned(t, lent), nil) {
				return
			}
			if n&ctxPollMask == ctxPollMask {
				if err := ctx.Err(); err != nil {
					yield(pvc.Tuple{}, err)
					return
				}
			}
		}
	}
}
