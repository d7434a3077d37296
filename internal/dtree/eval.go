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
	// leaves is the stack evalPlus evaluates the parts of a ⊕ node of
	// three or more onto, checked out of leafPool by the first such node
	// and returned by the package-level Evaluate.
	leaves *[]prob.Dist
}

// NewEvaluator returns an Evaluator that keeps what it evaluates.
func NewEvaluator(env Env) *Evaluator { return &Evaluator{env: env, keep: true} }

// Evaluate computes the probability distribution represented by the d-tree
// rooted at n, bottom-up in one pass (Theorem 2): Eq. (4)/(6) at ⊕ nodes,
// Eq. (5) at ⊙, Eq. (7) at ⊗, Eqs. (8)/(9) at [θ] and Eq. (10) at ⊔
// nodes. Shared sub-trees are evaluated once per cap they are reached
// under: nodes marked unique (in a compiled tree, all but the compiler's
// memo hits) by plain recursion, the others through a memo.
func Evaluate(n Node, env Env) (prob.Dist, EvalStats, error) {
	ev := Evaluator{env: env}
	d, err := ev.Evaluate(n)
	if ev.leaves != nil {
		leafPool.Put(ev.leaves)
	}
	return d, ev.stats, err
}

// Evaluate computes the distribution of the d-tree rooted at n, as the
// package-level Evaluate does, reusing what earlier calls evaluated.
func (ev *Evaluator) Evaluate(n Node) (prob.Dist, error) { return ev.eval(n, nil, true) }

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

// eval evaluates n under cap. inherited says that cap is the cap n's
// parent is being evaluated under, rather than one the parent chose (nil
// for a scalar, the node's own for the left side of a [θ]).
//
// A unique node is reached only from its one parent, so it needs no memo
// as long as each visit has a key of its own. Visits repeat when a
// not-unique ancestor is evaluated under a second cap; along inherited
// caps the keys then differ like the ancestor's, but a cap the parent
// chose is the same both times — that child goes through the memo, and,
// being evaluated once, shields what lies below it.
func (ev *Evaluator) eval(n Node, cap *prob.Cap, inherited bool) (prob.Dist, error) {
	shared := !unique(n)
	memoised := ev.keep || shared || (ev.revisit && !inherited)
	key := memoKey{n, cap}
	if memoised {
		if d, ok := ev.memo[key]; ok {
			return d, nil
		}
	}
	outer := ev.revisit
	ev.revisit = shared || (outer && inherited)
	d, err := ev.evalUncached(n, cap)
	ev.revisit = outer
	if err != nil {
		return prob.Dist{}, err
	}
	ev.counted(d)
	if memoised {
		if ev.memo == nil {
			ev.memo = map[memoKey]prob.Dist{}
		}
		ev.memo[key] = d
	}
	return d, nil
}

// counted accounts one node evaluation that produced d, and returns d.
func (ev *Evaluator) counted(d prob.Dist) prob.Dist {
	ev.stats.MaxDistSize = max(ev.stats.MaxDistSize, d.Size())
	ev.stats.NodeEvals++
	return d
}

// normalised returns d with the semiring's Normalise applied to its
// values — d itself when that changes nothing, which is the case for every
// variable of a Boolean query and every [θ] outcome.
func normalised(d prob.Dist, s algebra.Semiring) prob.Dist {
	for _, p := range d.Pairs() {
		if s.Normalise(p.V) != p.V {
			return prob.Map(d, s.Normalise)
		}
	}
	return d
}

func (ev *Evaluator) evalUncached(n Node, cap *prob.Cap) (prob.Dist, error) {
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
			return prob.Dist{}, err
		}
		return normalised(d, s), nil
	case *ConstLeaf:
		if t.Module {
			return cap.Clamp(prob.Point(t.V)), nil
		}
		return prob.Point(s.Normalise(t.V)), nil
	case *PlusNode:
		return ev.evalPlus(t, cap)
	case *TimesNode:
		l, err := ev.eval(t.L, nil, false)
		if err != nil {
			return prob.Dist{}, err
		}
		r, err := ev.eval(t.R, nil, false)
		if err != nil {
			return prob.Dist{}, err
		}
		return prob.Convolve(l, r, s.Mul, nil), nil
	case *TensorNode:
		mo := algebra.MonoidFor(t.Agg)
		sc, err := ev.eval(t.Scalar, nil, false)
		if err != nil {
			return prob.Dist{}, err
		}
		mod, err := ev.eval(t.Mod, cap, true)
		if err != nil {
			return prob.Dist{}, err
		}
		op := func(a, b value.V) value.V { return algebra.Action(s, mo, a, b) }
		return prob.Convolve(sc, mod, op, cap), nil
	case *CmpNode:
		l, err := ev.eval(t.L, t.Cap, false)
		if err != nil {
			return prob.Dist{}, err
		}
		r, err := ev.eval(t.R, nil, false)
		if err != nil {
			return prob.Dist{}, err
		}
		return normalised(prob.CmpConvolve(l, r, t.Th), s), nil
	case *ExclusiveNode:
		branches := make([]prob.Dist, len(t.Branches))
		weights := make([]float64, len(t.Branches))
		for i, br := range t.Branches {
			d, err := ev.eval(br.Child, cap, true)
			if err != nil {
				return prob.Dist{}, err
			}
			branches[i] = d
			weights[i] = br.P
		}
		return prob.Mixture(branches, weights), nil
	default:
		return prob.Dist{}, fmt.Errorf("dtree: unknown node %T", n)
	}
}

// leafPool recycles the part stacks of evaluators that do not keep.
var leafPool = sync.Pool{New: func() any { return new([]prob.Dist) }}

// evalPlus evaluates a ⊕ node under cap: its parts left to right — a
// module node's under cap, a semiring node's under none — then their sum
// in the balanced pairing, one convolution per binary node. An Evaluator
// that does not keep what it evaluates folds the parts of a SUM/COUNT node
// into one window (prob.FoldSum) when that sweeps fewer cells
// (prob.FoldCost) than the pairing (pairCost), and otherwise recycles
// each inner sum once its parent has read it. NodeEvals counts the k−1
// binary nodes either way; a fold builds no inner sum for MaxDistSize.
func (ev *Evaluator) evalPlus(t *PlusNode, cap *prob.Cap) (prob.Dist, error) {
	if !t.Module {
		cap = nil
	}
	if len(t.Parts) == 2 {
		l, err := ev.eval(t.Parts[0], cap, t.Module)
		if err != nil {
			return prob.Dist{}, err
		}
		r, err := ev.eval(t.Parts[1], cap, t.Module)
		if err != nil {
			return prob.Dist{}, err
		}
		return ev.plus(t, l, r, cap), nil
	}
	if ev.leaves == nil {
		ev.leaves = leafPool.Get().(*[]prob.Dist)
	}
	base := len(*ev.leaves)
	var err error
	for _, p := range t.Parts {
		var d prob.Dist
		if d, err = ev.eval(p, cap, t.Module); err != nil {
			break
		}
		*ev.leaves = append(*ev.leaves, d)
	}
	ds := (*ev.leaves)[base:]
	var d prob.Dist
	if err == nil {
		sum := !ev.keep && t.Module && (t.Agg == algebra.Sum || t.Agg == algebra.Count)
		fold := false
		if sum {
			if cost, ok := prob.FoldCost(ds, cap); ok {
				pairs, _ := pairCost(ds, cap)
				fold = cost < pairs
			}
		}
		if fold {
			d = prob.FoldSum(ds, cap)
			ev.stats.NodeEvals += len(ds) - 2 // the binary nodes but the root
		} else {
			d = ev.pairUp(t, ds, cap, sum)
		}
	}
	clear(ds) // the pooled stack keeps no distribution alive
	*ev.leaves = (*ev.leaves)[:base]
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
// counting each inner sum as eval counts a node. Ownership: the parts are
// the caller's — a part may be memoised or shared — and never recycled;
// an inner sum is given back to prob once its parent has read it when
// recycle is set; the sum of all of ds is the caller's.
func (ev *Evaluator) pairUp(t *PlusNode, ds []prob.Dist, cap *prob.Cap, recycle bool) prob.Dist {
	side := func(ds []prob.Dist) (d prob.Dist, inner bool) {
		if len(ds) == 1 {
			return ds[0], false
		}
		return ev.counted(ev.pairUp(t, ds, cap, recycle)), true
	}
	h := Halve(len(ds))
	l, lInner := side(ds[:h])
	r, rInner := side(ds[h:])
	d := ev.plus(t, l, r, cap)
	if recycle && lInner {
		prob.Recycle(l)
	}
	if recycle && rInner {
		prob.Recycle(r)
	}
	return d
}
