package dtree

import (
	"fmt"

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
	if s := d.Size(); s > ev.stats.MaxDistSize {
		ev.stats.MaxDistSize = s
	}
	ev.stats.NodeEvals++
	if memoised {
		if ev.memo == nil {
			ev.memo = map[memoKey]prob.Dist{}
		}
		ev.memo[key] = d
	}
	return d, nil
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
			l, err := ev.eval(t.L, cap, true)
			if err != nil {
				return prob.Dist{}, err
			}
			r, err := ev.eval(t.R, cap, true)
			if err != nil {
				return prob.Dist{}, err
			}
			// SUM and COUNT combine by integer addition, which has a kernel
			// of its own; the other monoids take the generic one.
			if t.Agg == algebra.Sum || t.Agg == algebra.Count {
				return prob.ConvolveSum(l, r, cap), nil
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
