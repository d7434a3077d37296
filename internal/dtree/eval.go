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
	// leaves is the stack evalSum evaluates a cluster's summands onto,
	// checked out of leafPool by the first cluster and returned by the
	// package-level Evaluate.
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
// however many caps they were evaluated under.
func (ev *Evaluator) Nodes() int {
	n := len(ev.memo)
	var capped map[Node]struct{} // nodes counted through a capped key
	for k := range ev.memo {
		if k.cap == nil {
			continue
		}
		if _, ok := ev.memo[memoKey{k.n, nil}]; ok {
			n--
			continue
		}
		if _, ok := capped[k.n]; ok {
			n--
			continue
		}
		if capped == nil {
			capped = map[Node]struct{}{}
		}
		capped[k.n] = struct{}{}
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
		if t.Module {
			// SUM and COUNT combine by integer addition, which has kernels
			// of its own; the other monoids take the generic one.
			if t.Agg == algebra.Sum || t.Agg == algebra.Count {
				return ev.evalSum(t, cap)
			}
			l, err := ev.eval(t.L, cap, true)
			if err != nil {
				return prob.Dist{}, err
			}
			r, err := ev.eval(t.R, cap, true)
			if err != nil {
				return prob.Dist{}, err
			}
			return prob.Convolve(l, r, algebra.MonoidFor(t.Agg).Combine, cap), nil
		}
		l, err := ev.eval(t.L, nil, false)
		if err != nil {
			return prob.Dist{}, err
		}
		r, err := ev.eval(t.R, nil, false)
		if err != nil {
			return prob.Dist{}, err
		}
		return prob.Convolve(l, r, s.Add, nil), nil
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

// inCluster reports whether n is a unique ⊕ node over the monoid agg,
// which belongs to the cluster of its parent's (see evalSum).
func inCluster(n Node, agg algebra.Agg) (*PlusNode, bool) {
	p, ok := n.(*PlusNode)
	return p, ok && p.Module && p.Agg == agg && unique(p)
}

// leafPool recycles the summand stacks of evaluators that fold.
var leafPool = sync.Pool{New: func() any { return new([]prob.Dist) }}

// evalSum evaluates a SUM/COUNT ⊕ node t under cap. t and the unique ⊕
// nodes of its monoid below it form a cluster: each of those has one
// parent and inherits t's cap, so eval would neither memoise it nor hand
// its distribution to anything but that parent, and the cluster's leaves —
// the first nodes below it that are not such ⊕ nodes — are independent
// summands. An Evaluator that does not keep what it evaluates evaluates
// them left to right, as eval would, onto its stack; it folds them into
// one window (prob.FoldSum) when the cells that sweeps (prob.FoldCost) are
// fewer than the cells of the cluster's own pairwise order (pairCost), and
// convolves them in that order otherwise. One that keeps never folds: a
// node marked unique there may gain a second parent after it has been
// evaluated. NodeEvals counts every ⊕ node of a cluster either way; a fold
// builds no distribution for the cluster's inner nodes, so MaxDistSize
// does not see them.
func (ev *Evaluator) evalSum(t *PlusNode, cap *prob.Cap) (prob.Dist, error) {
	_, inL := inCluster(t.L, t.Agg)
	_, inR := inCluster(t.R, t.Agg)
	if ev.keep || !(inL || inR) {
		l, err := ev.eval(t.L, cap, true)
		if err != nil {
			return prob.Dist{}, err
		}
		r, err := ev.eval(t.R, cap, true)
		if err != nil {
			return prob.Dist{}, err
		}
		return prob.ConvolveSum(l, r, cap), nil
	}
	if ev.leaves == nil {
		ev.leaves = leafPool.Get().(*[]prob.Dist)
	}
	base := len(*ev.leaves)
	err := ev.pushSummands(t, cap)
	ds := (*ev.leaves)[base:]
	var d prob.Dist
	if err == nil {
		fold := false
		if cost, ok := prob.FoldCost(ds, cap); ok {
			rest := ds
			pairs, _ := pairCost(t, &rest, cap)
			fold = cost < pairs
		}
		if fold {
			d = prob.FoldSum(ds, cap)
			ev.stats.NodeEvals += len(ds) - 2 // the cluster's ⊕ nodes but t
		} else {
			rest := ds
			d = ev.convolvePairs(t, &rest, cap)
		}
	}
	clear(ds) // the pooled stack keeps no distribution alive
	*ev.leaves = (*ev.leaves)[:base]
	return d, err
}

// pushSummands evaluates the summands of the cluster under t onto
// ev.leaves, left to right.
func (ev *Evaluator) pushSummands(t *PlusNode, cap *prob.Cap) error {
	for _, c := range [2]Node{t.L, t.R} {
		if p, ok := inCluster(c, t.Agg); ok {
			if err := ev.pushSummands(p, cap); err != nil {
				return err
			}
			continue
		}
		d, err := ev.eval(c, cap, true)
		if err != nil {
			return err
		}
		*ev.leaves = append(*ev.leaves, d)
	}
	return nil
}

// pairCost prices the cluster under t in its own order, taking its
// summands from the front of ds: the cells |L|·|R| of each of its ⊕
// nodes, an inner node's size estimated from its operands
// (prob.SumShape.Plus). It returns the estimated shape of t too.
func pairCost(t *PlusNode, ds *[]prob.Dist, cap *prob.Cap) (int, prob.SumShape) {
	side := func(c Node) (int, prob.SumShape) {
		if p, ok := inCluster(c, t.Agg); ok {
			return pairCost(p, ds, cap)
		}
		s := prob.ShapeOf((*ds)[0])
		*ds = (*ds)[1:]
		return 0, s
	}
	cl, l := side(t.L)
	cr, r := side(t.R)
	return cl + cr + l.Size*r.Size, l.Plus(r, cap)
}

// convolvePairs convolves the summands of the cluster under t, taken from
// the front of ds, in the cluster's own order, counting its inner nodes as
// eval would have.
func (ev *Evaluator) convolvePairs(t *PlusNode, ds *[]prob.Dist, cap *prob.Cap) prob.Dist {
	side := func(c Node) prob.Dist {
		if p, ok := inCluster(c, t.Agg); ok {
			return ev.counted(ev.convolvePairs(p, ds, cap))
		}
		d := (*ds)[0]
		*ds = (*ds)[1:]
		return d
	}
	l := side(t.L)
	return prob.ConvolveSum(l, side(t.R), cap)
}
