package dtree

import (
	"fmt"
	"sync"

	"pvcagg/internal/algebra"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// Env is the evaluation context for a d-tree: the semiring S the variables
// are valued in and their distributions.
type Env struct {
	Semiring algebra.Semiring
	Registry *vars.Registry
}

// EvalStats reports the work done by one Evaluate call: the number of node
// evaluations (shared nodes count once) and the largest intermediate
// distribution — the |pi| of Theorem 2's O(Π|pi|) bound.
type EvalStats struct {
	NodeEvals   int
	MaxDistSize int
}

// memoKey identifies one evaluation of a node that may be reached more
// than once: the same node under two caps has two distributions.
type memoKey struct {
	n   Node
	cap *prob.Cap
}

// Evaluator evaluates d-trees over one Env. One made by NewEvaluator keeps
// the distribution of every node it evaluates for the calls that follow:
// its owner hands it the trees of one compiler whose memo outlives a
// compilation (the anytime engine's), and such a tree may reach, through a
// later memo hit, a node an earlier call evaluated while the node was
// still marked unique.
//
// Ownership: a distribution a kernel made in this evaluation for a node
// that is not memoised is read by the node's one parent alone, which gives
// it back to prob.Recycle once it has combined it. So is an inner sum of a
// ⊕'s pairing. Leaves, the registry's distributions, interned points and
// memoised distributions are never given back; nor is the root's, which
// is the caller's.
type Evaluator struct {
	env  Env
	memo map[memoKey]prob.Dist // allocated on first use
	// keep memoises every node, whatever its mark.
	keep bool
	// revisit is true while the evaluation in progress may be repeated
	// under another cap: some enclosing node is not unique, and every cap
	// since was inherited from it.
	revisit bool
	stats   EvalStats
	// st is the stack evalPlus evaluates the parts of a ⊕ node of three or
	// more onto, and evalExclusive the branches of a ⊔, checked out of
	// stackPool by the first such node and returned by the package-level
	// Evaluate.
	st *stack
}

// stack holds, for every ⊕ and ⊔ whose children are being evaluated, the
// distributions of those evaluated so far, whether each is owned (see
// Evaluator), and a ⊔'s branch weights. A node pushes above what its
// ancestors pushed and pops back to it before it returns.
type stack struct {
	ds      []prob.Dist
	owned   []bool
	weights []float64
}

// NewEvaluator returns an Evaluator that keeps what it evaluates.
func NewEvaluator(env Env) *Evaluator { return &Evaluator{env: env, keep: true} }

// Reset empties the memo of an Evaluator made by NewEvaluator, keeping its
// capacity, and points it at env: the trees it evaluated may since have
// been invalidated (compile.Compiler.Reset).
func (ev *Evaluator) Reset(env Env) {
	if len(ev.memo) > 0 {
		clear(ev.memo)
	}
	ev.env, ev.stats = env, EvalStats{}
}

// Evaluate computes the probability distribution represented by the d-tree
// rooted at n, bottom-up in one pass (Theorem 2): Eq. (4)/(6) at ⊕ nodes,
// Eq. (5) at ⊙, Eq. (7) at ⊗, Eqs. (8)/(9) at [θ] and Eq. (10) at ⊔
// nodes. Shared sub-trees are evaluated once per cap they are reached
// under: nodes marked unique (in a compiled tree, all but the compiler's
// memo hits) by plain recursion, the others through a memo.
func Evaluate(n Node, env Env) (prob.Dist, EvalStats, error) {
	ev := Evaluator{env: env}
	d, err := ev.Evaluate(n)
	if ev.st != nil {
		stackPool.Put(ev.st)
	}
	return d, ev.stats, err
}

// Evaluate computes the distribution of the d-tree rooted at n, as the
// package-level Evaluate does, reusing what earlier calls evaluated.
func (ev *Evaluator) Evaluate(n Node) (prob.Dist, error) {
	d, _, err := ev.eval(n, nil, true)
	return d, err
}

// Nodes returns the number of distinct nodes the calls of an Evaluator
// made by NewEvaluator have evaluated: its memo's nodes, counted once
// however many caps they were evaluated under, and a ⊕ of k parts as its
// k−1 binary nodes (as Measure counts it).
func (ev *Evaluator) Nodes() int {
	n := 0
	var capped map[Node]struct{} // nodes counted through a capped key
	for k := range ev.memo {
		if k.cap != nil {
			if _, ok := ev.memo[memoKey{k.n, nil}]; ok {
				continue
			}
			if _, ok := capped[k.n]; ok {
				continue
			}
			if capped == nil {
				capped = map[Node]struct{}{}
			}
			capped[k.n] = struct{}{}
		}
		n++
		if p, ok := k.n.(*PlusNode); ok {
			n += len(p.Parts) - 2
		}
	}
	return n
}

// eval evaluates n under cap, and reports whether the caller owns the
// distribution (see Evaluator): a kernel made it in this evaluation and
// no memo holds it. inherited says that cap is the cap n's parent is being
// evaluated under, rather than one the parent chose (nil for a scalar,
// the node's own for the left side of a [θ]).
//
// A unique node is reached only from its one parent, so it needs no memo
// as long as each visit has a key of its own. Visits repeat when a
// not-unique ancestor is evaluated under a second cap; along inherited
// caps the keys then differ like the ancestor's, but a cap the parent
// chose is the same both times — that child goes through the memo, and,
// being evaluated once, shields what lies below it.
func (ev *Evaluator) eval(n Node, cap *prob.Cap, inherited bool) (prob.Dist, bool, error) {
	shared := !unique(n)
	memoised := ev.keep || shared || (ev.revisit && !inherited)
	key := memoKey{n, cap}
	if memoised {
		if d, ok := ev.memo[key]; ok {
			return d, false, nil
		}
	}
	outer := ev.revisit
	ev.revisit = shared || (outer && inherited)
	d, owned, err := ev.evalUncached(n, cap)
	ev.revisit = outer
	if err != nil {
		return prob.Dist{}, false, err
	}
	ev.counted(d)
	if memoised {
		if ev.memo == nil {
			ev.memo = map[memoKey]prob.Dist{}
		}
		ev.memo[key] = d
		return d, false, nil
	}
	return d, owned, nil
}

// counted accounts one node evaluation that produced d, and returns d.
func (ev *Evaluator) counted(d prob.Dist) prob.Dist {
	ev.stats.MaxDistSize = max(ev.stats.MaxDistSize, d.Size())
	ev.stats.NodeEvals++
	return d
}

// release gives d back to prob once its reader has combined it, if the
// reader owns it.
func release(d prob.Dist, owned bool) {
	if owned {
		prob.Recycle(d)
	}
}

// normalised returns d with the semiring's Normalise applied to its
// values, and whether that made a new distribution: it returns d itself
// when Normalise changes nothing, which is the case for every variable of
// a Boolean query and every [θ] outcome.
func normalised(d prob.Dist, s algebra.Semiring) (prob.Dist, bool) {
	for _, p := range d.Pairs() {
		if s.Normalise(p.V) != p.V {
			return prob.Map(d, s.Normalise), true
		}
	}
	return d, false
}

// evalUncached evaluates n under cap, and reports whether a kernel made
// the distribution in this evaluation.
func (ev *Evaluator) evalUncached(n Node, cap *prob.Cap) (prob.Dist, bool, error) {
	s := ev.env.Semiring
	switch t := n.(type) {
	case *VarLeaf:
		var d prob.Dist
		var err error
		if t.ID != 0 {
			d, err = ev.env.Registry.DistByID(t.ID)
		} else {
			d, err = ev.env.Registry.Dist(t.Name)
		}
		if err != nil {
			return prob.Dist{}, false, err
		}
		d, made := normalised(d, s)
		return d, made, nil
	case *ConstLeaf:
		if t.Module {
			// Clamp maps the point to a new distribution under a cap.
			return cap.Clamp(prob.Point(t.V)), cap != nil, nil
		}
		return prob.Point(s.Normalise(t.V)), false, nil
	case *PlusNode:
		d, err := ev.evalPlus(t, cap)
		return d, err == nil, err
	case *TimesNode:
		l, lOwned, err := ev.eval(t.L, nil, false)
		if err != nil {
			return prob.Dist{}, false, err
		}
		r, rOwned, err := ev.eval(t.R, nil, false)
		if err != nil {
			return prob.Dist{}, false, err
		}
		d := prob.Convolve(l, r, s.Mul, nil)
		release(l, lOwned)
		release(r, rOwned)
		return d, true, nil
	case *TensorNode:
		mo := algebra.MonoidFor(t.Agg)
		sc, scOwned, err := ev.eval(t.Scalar, nil, false)
		if err != nil {
			return prob.Dist{}, false, err
		}
		mod, modOwned, err := ev.eval(t.Mod, cap, true)
		if err != nil {
			return prob.Dist{}, false, err
		}
		op := func(a, b value.V) value.V { return algebra.Action(s, mo, a, b) }
		d := prob.Convolve(sc, mod, op, cap)
		release(sc, scOwned)
		release(mod, modOwned)
		return d, true, nil
	case *CmpNode:
		l, lOwned, err := ev.eval(t.L, t.Cap, false)
		if err != nil {
			return prob.Dist{}, false, err
		}
		r, rOwned, err := ev.eval(t.R, nil, false)
		if err != nil {
			return prob.Dist{}, false, err
		}
		c := prob.CmpConvolve(l, r, t.Th)
		release(l, lOwned)
		release(r, rOwned)
		d, made := normalised(c, s)
		release(c, made)
		return d, true, nil
	case *ExclusiveNode:
		d, err := ev.evalExclusive(t, cap)
		return d, err == nil, err
	default:
		return prob.Dist{}, false, fmt.Errorf("dtree: unknown node %T", n)
	}
}

// stackPool recycles the stacks of evaluators that do not keep.
var stackPool = sync.Pool{New: func() any { return new(stack) }}

// stack returns ev's stack, checking one out on first use.
func (ev *Evaluator) stack() *stack {
	if ev.st == nil {
		ev.st = stackPool.Get().(*stack)
	}
	return ev.st
}

// push evaluates n under cap onto the stack.
func (ev *Evaluator) push(n Node, cap *prob.Cap, inherited bool) error {
	d, owned, err := ev.eval(n, cap, inherited)
	if err != nil {
		return err
	}
	st := ev.st
	st.ds = append(st.ds, d)
	st.owned = append(st.owned, owned)
	return nil
}

// pop drops every entry above base, giving back those owned: their node
// has read them, or failed and never will.
func (st *stack) pop(base int) {
	for i, d := range st.ds[base:] {
		release(d, st.owned[base+i])
	}
	clear(st.ds[base:]) // the pooled stack keeps no distribution alive
	st.ds, st.owned = st.ds[:base], st.owned[:base]
}

// evalExclusive evaluates a ⊔ node under cap: the mixture of its branches,
// evaluated onto the stack.
func (ev *Evaluator) evalExclusive(t *ExclusiveNode, cap *prob.Cap) (prob.Dist, error) {
	st := ev.stack()
	base, wbase := len(st.ds), len(st.weights)
	var err error
	for _, br := range t.Branches {
		if err = ev.push(br.Child, cap, true); err != nil {
			break
		}
		st.weights = append(st.weights, br.P)
	}
	var d prob.Dist
	if err == nil {
		d = prob.Mixture(st.ds[base:], st.weights[wbase:])
	}
	st.pop(base)
	st.weights = st.weights[:wbase]
	return d, err
}

// evalPlus evaluates a ⊕ node under cap: its parts left to right — a
// module node's under cap, a semiring node's under none — then their sum
// in the balanced pairing, one convolution per binary node. An Evaluator
// that does not keep what it evaluates folds the parts of a SUM/COUNT node
// into one window (prob.FoldSum) when that sweeps fewer cells
// (prob.FoldCost) than the pairing (pairCost). NodeEvals counts the k−1
// binary nodes either way; a fold builds no inner sum for MaxDistSize.
func (ev *Evaluator) evalPlus(t *PlusNode, cap *prob.Cap) (prob.Dist, error) {
	if !t.Module {
		cap = nil
	}
	if len(t.Parts) == 2 {
		l, lOwned, err := ev.eval(t.Parts[0], cap, t.Module)
		if err != nil {
			return prob.Dist{}, err
		}
		r, rOwned, err := ev.eval(t.Parts[1], cap, t.Module)
		if err != nil {
			return prob.Dist{}, err
		}
		d := ev.plus(t, l, r, cap)
		release(l, lOwned)
		release(r, rOwned)
		return d, nil
	}
	st := ev.stack()
	base := len(st.ds)
	var err error
	for _, p := range t.Parts {
		if err = ev.push(p, cap, t.Module); err != nil {
			break
		}
	}
	var d prob.Dist
	if err == nil {
		ds, owned := st.ds[base:], st.owned[base:]
		fold := false
		if !ev.keep && t.Module && (t.Agg == algebra.Sum || t.Agg == algebra.Count) {
			if cost, ok := prob.FoldCost(ds, cap); ok {
				pairs, _ := pairCost(ds, cap)
				fold = cost < pairs
			}
		}
		if fold {
			d = prob.FoldSum(ds, cap)
			ev.stats.NodeEvals += len(ds) - 2 // the binary nodes but the root
		} else {
			d = ev.pairUp(t, ds, owned, cap)
			clear(owned) // pairUp has given back the parts it owned
		}
	}
	st.pop(base)
	return d, err
}

// plus is the distribution of the sum of two independent operands of t.
func (ev *Evaluator) plus(t *PlusNode, l, r prob.Dist, cap *prob.Cap) prob.Dist {
	switch {
	case !t.Module:
		return prob.Convolve(l, r, ev.env.Semiring.Add, nil)
	case t.Agg == algebra.Sum || t.Agg == algebra.Count:
		// SUM and COUNT combine by integer addition, which has kernels of
		// its own; the other monoids take the generic one.
		return prob.ConvolveSum(l, r, cap)
	default:
		return prob.Convolve(l, r, algebra.MonoidFor(t.Agg).Combine, cap)
	}
}

// pairCost prices summing ds, which FoldCost has accepted, in their
// balanced pairing: the cells |L|·|R| of each binary node, an inner
// node's size estimated from its operands (prob.SumShape.Plus). It
// returns the estimated shape of the sum too.
func pairCost(ds []prob.Dist, cap *prob.Cap) (int, prob.SumShape) {
	if len(ds) == 1 {
		return 0, prob.ShapeOf(ds[0])
	}
	h := Halve(len(ds))
	cl, l := pairCost(ds[:h], cap)
	cr, r := pairCost(ds[h:], cap)
	return cl + cr + l.Size*r.Size, l.Plus(r, cap)
}

// pairUp sums the parts ds of t, two or more, in their balanced pairing,
// counting each inner sum as eval counts a node, and gives back every
// operand once its binary node has read it if owned says the part is
// owned, and always if it is an inner sum. The sum of all of ds is the
// caller's.
func (ev *Evaluator) pairUp(t *PlusNode, ds []prob.Dist, owned []bool, cap *prob.Cap) prob.Dist {
	side := func(ds []prob.Dist, owned []bool) (prob.Dist, bool) {
		if len(ds) == 1 {
			return ds[0], owned[0]
		}
		return ev.counted(ev.pairUp(t, ds, owned, cap)), true
	}
	h := Halve(len(ds))
	l, lOwned := side(ds[:h], owned[:h])
	r, rOwned := side(ds[h:], owned[h:])
	d := ev.plus(t, l, r, cap)
	release(l, lOwned)
	release(r, rOwned)
	return d
}
