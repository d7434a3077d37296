package worlds

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// This file is the Monte-Carlo sampler. An annotation is the same for
// every world drawn from it, so it is compiled once into a flat
// post-order program over variable slots and typed columns, and the
// worlds are drawn and evaluated a batch at a time:
//
//   - a slot is one variable of the expression, in expr.Vars order, with
//     a draw table (mass, running-sum thresholds, normalised values) built
//     once from the registry by interned ID;
//   - a bit column holds one 0S/1S value per world, 64 worlds to a
//     uint64: variables whose normalised values are all 0S or 1S (every
//     variable under the Boolean semiring), + as OR and · as AND there,
//     and the result of every comparison;
//   - a value column holds one value.V per world: everything else.
//
// Randomness is consumed exactly as the loop this replaces consumed it —
// world by world, within a world variable by variable in name order, one
// rng.Float64() each, compared against the same running sums — so an
// estimate at a given seed is the same to the last bit. The replaced loop
// is kept as the reference of TestSamplerMatchesReference.

// batch is the number of worlds drawn and evaluated together. It divides
// 1024, so the context poll of every 1024 worlds falls between batches.
const (
	batch      = 256
	batchWords = batch / 64
)

// Sampler estimates distributions by sampling possible worlds. It owns
// the scratch one estimate needs — program, draw tables, columns — and
// reuses it for the next, so a caller that keeps one Sampler (one per
// goroutine: it is not safe for concurrent use) allocates nothing per
// world and next to nothing per annotation. The zero value is ready.
type Sampler struct {
	sr      algebra.Semiring
	boolean bool

	occ   []expr.Var // every variable occurrence, then sorted by name
	slots []slot     // the distinct variables, in expr.Vars order
	pairs []drawPair // the slots' draw tables, back to back
	code  []instr
	root  ref

	// Registers are columns. The first nBitSlots bit registers and the
	// first nValSlots value registers are the variable slots, filled by
	// draw; the rest are temporaries, allocated as a stack while the
	// program is built (bitTop and valTop are its tops, nBit and nVal
	// the high-water marks).
	nBitSlots, nValSlots int32
	bitTop, valTop       int32
	nBit, nVal           int32
	bitCols              []uint64  // register r is bitCols[r*batchWords:][:batchWords]
	valCols              []value.V // register r is valCols[r*batch:][:batch]

	rootVals []value.V // a value-typed root's outcome in every world
	out      []prob.Pair
}

// slot is one variable with its draw table pairs[lo:hi].
type slot struct {
	name   string
	mass   float64
	lo, hi int32
	bit    bool  // every normalised value is 0S or 1S: drawn into a bit column
	reg    int32 // the slot's register in its column file

	// A bit slot of at most two pairs — a Bernoulli variable, nearly
	// always — is drawn from these alone: the pair is the first if
	// u < thr and else the last, whose bit is last; differ is whether
	// the two bits differ.
	two          bool
	thr          float64
	last, differ uint64
}

// drawPair is one (value, probability) pair of a variable: thr is the
// running sum of the probabilities up to and including this pair, in
// pair order, and val the value normalised into the semiring.
type drawPair struct {
	thr float64
	val value.V
	bit uint64 // val as a bit, when it is 0S or 1S
}

// ref names the column holding a sub-expression's value in every world.
// A bit column's lane reads as the semiring element 0S or 1S.
type ref struct {
	bit bool
	reg int32
}

type opcode uint8

const (
	opBitFill opcode = iota // dst ← imm (0 or 1) in every lane
	opOr                    // dst ← a ∨ b
	opAnd                   // dst ← a ∧ b
	opBitCmp                // dst ← [a θ b], a and b bit columns
	opCmp                   // dst ← [a θ b], a and b value columns
	opTruth                 // dst ← a ≠ 0, a a value column
	opFill                  // dst ← imm in every lane
	opSelect                // dst ← imm where bit column a is 0, imm1 where it is 1
	opCombine               // dst ← a +mo b
	opAction                // dst ← a ⊗ b in the semimodule over mo
)

type instr struct {
	op        opcode
	th        value.Theta
	dst, a, b int32
	imm, imm1 value.V
	mo        algebra.Monoid
}

// Sample estimates the distribution of e from n worlds drawn with rng.
// See MonteCarloCtx, which is Sample on a fresh Sampler.
func (sm *Sampler) Sample(ctx context.Context, e expr.Expr, reg *vars.Registry, s algebra.Semiring, n int, rng *rand.Rand) (prob.Dist, error) {
	if err := ctx.Err(); err != nil {
		return prob.Dist{}, err
	}
	if err := reg.CheckDeclared(e); err != nil {
		return prob.Dist{}, err
	}
	if n <= 0 {
		return prob.Dist{}, fmt.Errorf("worlds: MonteCarlo sample count %d must be positive", n)
	}
	if err := sm.compile(e, reg, s); err != nil {
		return prob.Dist{}, err
	}
	ones := 0
	sm.rootVals = sm.rootVals[:0]
	for i := 0; i < n; i += batch {
		if i&1023 == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				return prob.Dist{}, err
			}
		}
		lanes := min(batch, n-i)
		sm.draw(rng, lanes)
		sm.eval(lanes)
		if sm.root.bit {
			ones += sm.countOnes(lanes)
		} else {
			for _, v := range sm.val(sm.root.reg)[:lanes] {
				sm.rootVals = append(sm.rootVals, v.Key())
			}
		}
	}
	return sm.dist(n, ones), nil
}

// dist turns the outcome counts into the estimate. A value seen in c of
// the n worlds gets 1/n added c times from 0 — not c/n — which is what
// accumulating world by world produces.
func (sm *Sampler) dist(n, ones int) prob.Dist {
	w := 1 / float64(n)
	weight := func(c int) float64 {
		p := 0.0
		for ; c > 0; c-- {
			p += w
		}
		return p
	}
	sm.out = sm.out[:0]
	if sm.root.bit {
		if zeros := n - ones; zeros > 0 {
			sm.out = append(sm.out, prob.Pair{V: value.Int(0), P: weight(zeros)})
		}
		if ones > 0 {
			sm.out = append(sm.out, prob.Pair{V: value.Int(1), P: weight(ones)})
		}
	}
	slices.SortFunc(sm.rootVals, value.V.Cmp) // empty under a bit-typed root
	for i := 0; i < len(sm.rootVals); {
		j := i + 1
		for j < len(sm.rootVals) && sm.rootVals[j] == sm.rootVals[i] {
			j++
		}
		sm.out = append(sm.out, prob.Pair{V: sm.rootVals[i], P: weight(j - i)})
		i = j
	}
	return prob.FromPairs(sm.out)
}

// compile builds the slots, their draw tables and the program of e.
func (sm *Sampler) compile(e expr.Expr, reg *vars.Registry, s algebra.Semiring) error {
	sm.sr, sm.boolean = s, s.Kind() == algebra.Boolean
	sm.occ = expr.AppendVars(sm.occ[:0], e)
	slices.SortFunc(sm.occ, func(a, b expr.Var) int { return strings.Compare(a.Name, b.Name) })
	sm.slots, sm.pairs = sm.slots[:0], sm.pairs[:0]
	sm.nBitSlots, sm.nValSlots = 0, 0
	for i, v := range sm.occ {
		if i > 0 && v.Name == sm.occ[i-1].Name {
			continue
		}
		d, err := reg.DistByID(v.ID())
		if err != nil {
			return err
		}
		sl := slot{name: v.Name, mass: d.Mass(), lo: int32(len(sm.pairs)), bit: true}
		acc := 0.0
		for _, p := range d.Pairs() {
			acc += p.P
			val := s.Normalise(p.V)
			pr := drawPair{thr: acc, val: val}
			if val.IsOne() {
				pr.bit = 1
			}
			sl.bit = sl.bit && (val.IsZero() || val.IsOne())
			sm.pairs = append(sm.pairs, pr)
		}
		sl.hi = int32(len(sm.pairs))
		if first, last := sm.pairs[sl.lo], sm.pairs[sl.hi-1]; sl.bit && sl.hi-sl.lo <= 2 {
			sl.two, sl.thr, sl.last, sl.differ = true, first.thr, last.bit, first.bit^last.bit
		}
		if sl.bit {
			sl.reg = sm.nBitSlots
			sm.nBitSlots++
		} else {
			sl.reg = sm.nValSlots
			sm.nValSlots++
		}
		sm.slots = append(sm.slots, sl)
	}
	sm.code = sm.code[:0]
	sm.bitTop, sm.valTop = sm.nBitSlots, sm.nValSlots
	sm.nBit, sm.nVal = sm.nBitSlots, sm.nValSlots
	root, err := sm.emit(e)
	if err != nil {
		return err
	}
	sm.root = root
	sm.bitCols = slices.Grow(sm.bitCols[:0], int(sm.nBit)*batchWords)[:int(sm.nBit)*batchWords]
	sm.valCols = slices.Grow(sm.valCols[:0], int(sm.nVal)*batch)[:int(sm.nVal)*batch]
	return nil
}

// mark is the tops of the two temporary stacks when a node's emission
// began.
type mark struct{ bit, val int32 }

// result frees every temporary allocated since m — the operands' — and
// allocates the node's own.
func (sm *Sampler) result(m mark, bit bool) ref {
	sm.bitTop, sm.valTop = m.bit, m.val
	if bit {
		return ref{bit: true, reg: sm.bitTemp()}
	}
	return ref{reg: sm.valTemp()}
}

func (sm *Sampler) bitTemp() int32 {
	r := sm.bitTop
	sm.bitTop++
	sm.nBit = max(sm.nBit, sm.bitTop)
	return r
}

func (sm *Sampler) valTemp() int32 {
	r := sm.valTop
	sm.valTop++
	sm.nVal = max(sm.nVal, sm.valTop)
	return r
}

// emit appends the instructions computing e and returns where its value
// lands. Temporaries are a stack: a node frees everything its operands
// allocated and puts its result at the mark it started from, so the
// registers in use are bounded by the depth of e, not its size. The
// result may therefore share a register with an operand; every kernel
// reads lane i of its operands before it writes lane i of its result.
func (sm *Sampler) emit(e expr.Expr) (ref, error) {
	m := mark{sm.bitTop, sm.valTop}
	switch n := e.(type) {
	case expr.Var:
		i, _ := slices.BinarySearchFunc(sm.slots, n.Name, func(sl slot, name string) int { return strings.Compare(sl.name, name) })
		return ref{bit: sm.slots[i].bit, reg: sm.slots[i].reg}, nil
	case expr.Const:
		return sm.emitConst(m, sm.boolean, sm.sr.Normalise(n.V)), nil
	case expr.MConst:
		return sm.emitConst(m, false, n.V), nil
	case expr.Add:
		if sm.boolean {
			return sm.emitFold(m, n.Terms, true, instr{op: opOr}, sm.sr.Zero())
		}
		// (N, +) is the SUM monoid.
		return sm.emitFold(m, n.Terms, false, instr{op: opCombine, mo: algebra.MonoidFor(algebra.Sum)}, sm.sr.Zero())
	case expr.Mul:
		if sm.boolean {
			return sm.emitFold(m, n.Factors, true, instr{op: opAnd}, sm.sr.One())
		}
		return sm.emitProduct(m, n.Factors)
	case expr.AggSum:
		mo := algebra.MonoidFor(n.Agg)
		return sm.emitFold(m, n.Terms, false, instr{op: opCombine, mo: mo}, mo.Neutral())
	case expr.Tensor:
		return sm.emitTensor(m, n)
	case expr.Cmp:
		n.Th.Holds(0) // an invalid θ panics here, as it does in Eval
		l, err := sm.emit(n.L)
		if err != nil {
			return ref{}, err
		}
		r, err := sm.emit(n.R)
		if err != nil {
			return ref{}, err
		}
		if l.bit && r.bit {
			dst := sm.result(m, true)
			sm.code = append(sm.code, instr{op: opBitCmp, th: n.Th, dst: dst.reg, a: l.reg, b: r.reg})
			return dst, nil
		}
		l, r = sm.toVal(l), sm.toVal(r)
		dst := sm.result(m, true)
		sm.code = append(sm.code, instr{op: opCmp, th: n.Th, dst: dst.reg, a: l.reg, b: r.reg})
		return dst, nil
	default:
		return ref{}, fmt.Errorf("expr: unknown node %T", e)
	}
}

// toVal widens a bit column to the values 0 and 1.
func (sm *Sampler) toVal(r ref) ref {
	if !r.bit {
		return r
	}
	dst := ref{reg: sm.valTemp()}
	sm.code = append(sm.code, instr{op: opSelect, dst: dst.reg, a: r.reg, imm: value.Int(0), imm1: value.Int(1)})
	return dst
}

// toBit narrows a value column to its truth, which is what the Boolean
// semiring's Normalise, + and · make of any value.
func (sm *Sampler) toBit(r ref) ref {
	if r.bit {
		return r
	}
	dst := ref{bit: true, reg: sm.bitTemp()}
	sm.code = append(sm.code, instr{op: opTruth, dst: dst.reg, a: r.reg})
	return dst
}

// emitConst fills a column, of bits (v is 0S or 1S) or of values, with v.
func (sm *Sampler) emitConst(m mark, bit bool, v value.V) ref {
	dst := sm.result(m, bit)
	op := opFill
	if bit {
		op = opBitFill
	}
	sm.code = append(sm.code, instr{op: op, dst: dst.reg, imm: v})
	return dst
}

// emitFold folds step — OR or AND over bit columns, a monoid's + over
// value columns — over es, each narrowed or widened to the column type;
// empty is the value of no terms. The fold starts at the first term, not
// at empty: empty + v is v.
func (sm *Sampler) emitFold(m mark, es []expr.Expr, bit bool, step instr, empty value.V) (ref, error) {
	if len(es) == 0 {
		return sm.emitConst(m, bit, empty), nil
	}
	var acc ref
	for i, t := range es {
		r, err := sm.emit(t)
		if err != nil {
			return ref{}, err
		}
		if bit {
			r = sm.toBit(r)
		} else {
			r = sm.toVal(r)
		}
		if i == 0 {
			acc = r
			continue
		}
		dst := sm.result(m, bit)
		step.dst, step.a, step.b = dst.reg, acc.reg, r.reg
		sm.code = append(sm.code, step)
		acc = dst
	}
	return acc, nil
}

// emitProduct is · under the natural-number semiring: the PROD monoid's
// +, except that a product of 0/1 columns stays a bit column (AND).
func (sm *Sampler) emitProduct(m mark, es []expr.Expr) (ref, error) {
	if len(es) == 0 {
		return sm.emitConst(m, true, sm.sr.One()), nil
	}
	var acc ref
	for i, f := range es {
		r, err := sm.emit(f)
		if err != nil {
			return ref{}, err
		}
		if i == 0 {
			acc = r
			continue
		}
		if acc.bit && r.bit {
			dst := sm.result(m, true)
			sm.code = append(sm.code, instr{op: opAnd, dst: dst.reg, a: acc.reg, b: r.reg})
			acc = dst
			continue
		}
		a, b := sm.toVal(acc), sm.toVal(r)
		dst := sm.result(m, false)
		sm.code = append(sm.code, instr{op: opCombine, mo: algebra.MonoidFor(algebra.Prod), dst: dst.reg, a: a.reg, b: b.reg})
		acc = dst
	}
	return acc, nil
}

// emitTensor is Φ ⊗ α. With a 0/1 scalar and a constant α — the shape
// step I produces — the result is one of two values known now.
func (sm *Sampler) emitTensor(m mark, n expr.Tensor) (ref, error) {
	mo := algebra.MonoidFor(n.Agg)
	sc, err := sm.emit(n.Scalar)
	if err != nil {
		return ref{}, err
	}
	if sm.boolean {
		sc = sm.toBit(sc) // Action normalises its scalar
	}
	if c, ok := n.Mod.(expr.MConst); ok && sc.bit {
		dst := sm.result(m, false)
		sm.code = append(sm.code, instr{op: opSelect, dst: dst.reg, a: sc.reg,
			imm:  algebra.Action(sm.sr, mo, value.Int(0), c.V),
			imm1: algebra.Action(sm.sr, mo, value.Int(1), c.V)})
		return dst, nil
	}
	mod, err := sm.emit(n.Mod)
	if err != nil {
		return ref{}, err
	}
	sc, mod = sm.toVal(sc), sm.toVal(mod)
	dst := sm.result(m, false)
	sm.code = append(sm.code, instr{op: opAction, mo: mo, dst: dst.reg, a: sc.reg, b: mod.reg})
	return dst, nil
}

func (sm *Sampler) bits(r int32) []uint64 { return sm.bitCols[int(r)*batchWords:][:batchWords] }
func (sm *Sampler) val(r int32) []value.V { return sm.valCols[int(r)*batch:][:batch] }

// draw fills the slot columns with one batch of worlds: world by world,
// within a world slot by slot, one rng.Float64() each. The drawn pair is
// the first whose running sum exceeds u, or the last.
func (sm *Sampler) draw(rng *rand.Rand, lanes int) {
	clear(sm.bitCols[:int(sm.nBitSlots)*batchWords])
	for w := 0; w < lanes; w++ {
		for j := range sm.slots {
			sl := &sm.slots[j]
			u := rng.Float64() * sl.mass
			if sl.two {
				// Without a branch on u, which no predictor can learn.
				var first uint64
				if u < sl.thr {
					first = 1
				}
				sm.bitCols[int(sl.reg)*batchWords+w>>6] |= (sl.last ^ sl.differ&first) << (w & 63)
				continue
			}
			k := sl.lo
			for k < sl.hi-1 && !(u < sm.pairs[k].thr) {
				k++
			}
			sm.set(sl, w, k)
		}
	}
}

// set records that world w of the batch drew pair k of sl. A bit slot's
// column must be clear at w.
func (sm *Sampler) set(sl *slot, w int, k int32) {
	if sl.bit {
		sm.bitCols[int(sl.reg)*batchWords+w>>6] |= sm.pairs[k].bit << (w & 63)
	} else {
		sm.valCols[int(sl.reg)*batch+w] = sm.pairs[k].val
	}
}

// eval runs the program over the first lanes worlds of the batch.
func (sm *Sampler) eval(lanes int) {
	words := (lanes + 63) >> 6
	for i := range sm.code {
		in := &sm.code[i]
		switch in.op {
		case opBitFill:
			fill := uint64(0)
			if in.imm.Truth() {
				fill = ^uint64(0)
			}
			d := sm.bits(in.dst)
			for w := 0; w < words; w++ {
				d[w] = fill
			}
		case opOr:
			d, a, b := sm.bits(in.dst), sm.bits(in.a), sm.bits(in.b)
			for w := 0; w < words; w++ {
				d[w] = a[w] | b[w]
			}
		case opAnd:
			d, a, b := sm.bits(in.dst), sm.bits(in.a), sm.bits(in.b)
			for w := 0; w < words; w++ {
				d[w] = a[w] & b[w]
			}
		case opBitCmp:
			d, a, b := sm.bits(in.dst), sm.bits(in.a), sm.bits(in.b)
			for w := 0; w < words; w++ {
				d[w] = cmpBits(in.th, a[w], b[w])
			}
		case opCmp:
			d, a, b := sm.bits(in.dst), sm.val(in.a), sm.val(in.b)
			clear(d[:words])
			for i := 0; i < lanes; i++ {
				if in.th.Apply(a[i], b[i]) {
					d[i>>6] |= 1 << (i & 63)
				}
			}
		case opTruth:
			d, a := sm.bits(in.dst), sm.val(in.a)
			clear(d[:words])
			for i := 0; i < lanes; i++ {
				if a[i].Truth() {
					d[i>>6] |= 1 << (i & 63)
				}
			}
		case opFill:
			d := sm.val(in.dst)[:lanes]
			for i := range d {
				d[i] = in.imm
			}
		case opSelect:
			d, a := sm.val(in.dst)[:lanes], sm.bits(in.a)
			pick := [2]value.V{in.imm, in.imm1}
			for i := range d {
				d[i] = pick[a[i>>6]>>(i&63)&1]
			}
		case opCombine:
			d, a, b := sm.val(in.dst)[:lanes], sm.val(in.a)[:lanes], sm.val(in.b)[:lanes]
			switch in.mo.Agg() {
			case algebra.Sum, algebra.Count:
				for i := range d {
					d[i] = a[i].Add(b[i])
				}
			case algebra.Min:
				for i := range d {
					d[i] = a[i].Min(b[i])
				}
			case algebra.Max:
				for i := range d {
					d[i] = a[i].Max(b[i])
				}
			case algebra.Prod:
				for i := range d {
					d[i] = a[i].Mul(b[i])
				}
			}
		case opAction:
			d, a, b := sm.val(in.dst)[:lanes], sm.val(in.a)[:lanes], sm.val(in.b)[:lanes]
			for i := range d {
				d[i] = algebra.Action(sm.sr, in.mo, a[i], b[i])
			}
		}
	}
}

// cmpBits is [a θ b] on 64 lanes of 0/1 values.
func cmpBits(th value.Theta, a, b uint64) uint64 {
	switch th {
	case value.EQ:
		return ^(a ^ b)
	case value.NE:
		return a ^ b
	case value.LE:
		return ^a | b
	case value.GE:
		return a | ^b
	case value.LT:
		return ^a & b
	default: // GT; emit rejected anything else
		return a &^ b
	}
}

// countOnes counts the worlds of the batch in which a bit-typed root is 1S.
func (sm *Sampler) countOnes(lanes int) int {
	col := sm.bits(sm.root.reg)
	n := 0
	for w := 0; w < lanes>>6; w++ {
		n += bits.OnesCount64(col[w])
	}
	if r := lanes & 63; r != 0 {
		n += bits.OnesCount64(col[lanes>>6] & (1<<r - 1))
	}
	return n
}
