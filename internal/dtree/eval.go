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

type memoKey struct {
	n   Node
	cap *prob.Cap
}

type evaluator struct {
	env   Env
	memo  map[memoKey]prob.Dist
	stats EvalStats
}

// Evaluate computes the probability distribution represented by the d-tree
// rooted at n, bottom-up in one pass (Theorem 2): Eq. (4)/(6) at ⊕ nodes,
// Eq. (5) at ⊙, Eq. (7) at ⊗, Eqs. (8)/(9) at [θ] and Eq. (10) at ⊔
// nodes. Shared sub-trees are evaluated once.
func Evaluate(n Node, env Env) (prob.Dist, EvalStats, error) {
	ev := &evaluator{env: env, memo: map[memoKey]prob.Dist{}}
	d, err := ev.eval(n, nil)
	return d, ev.stats, err
}

func (ev *evaluator) eval(n Node, cap *prob.Cap) (prob.Dist, error) {
	key := memoKey{n, cap}
	if d, ok := ev.memo[key]; ok {
		return d, nil
	}
	d, err := ev.evalUncached(n, cap)
	if err != nil {
		return prob.Dist{}, err
	}
	if s := d.Size(); s > ev.stats.MaxDistSize {
		ev.stats.MaxDistSize = s
	}
	ev.stats.NodeEvals++
	ev.memo[key] = d
	return d, nil
}

func (ev *evaluator) evalUncached(n Node, cap *prob.Cap) (prob.Dist, error) {
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
		return prob.Map(d, s.Normalise), nil
	case *ConstLeaf:
		if t.Module {
			return cap.Clamp(prob.Point(t.V)), nil
		}
		return prob.Point(s.Normalise(t.V)), nil
	case *PlusNode:
		if t.Module {
			mo := algebra.MonoidFor(t.Agg)
			l, err := ev.eval(t.L, cap)
			if err != nil {
				return prob.Dist{}, err
			}
			r, err := ev.eval(t.R, cap)
			if err != nil {
				return prob.Dist{}, err
			}
			return prob.Convolve(l, r, mo.Combine, cap), nil
		}
		l, err := ev.eval(t.L, nil)
		if err != nil {
			return prob.Dist{}, err
		}
		r, err := ev.eval(t.R, nil)
		if err != nil {
			return prob.Dist{}, err
		}
		return prob.Convolve(l, r, s.Add, nil), nil
	case *TimesNode:
		l, err := ev.eval(t.L, nil)
		if err != nil {
			return prob.Dist{}, err
		}
		r, err := ev.eval(t.R, nil)
		if err != nil {
			return prob.Dist{}, err
		}
		return prob.Convolve(l, r, s.Mul, nil), nil
	case *TensorNode:
		mo := algebra.MonoidFor(t.Agg)
		sc, err := ev.eval(t.Scalar, nil)
		if err != nil {
			return prob.Dist{}, err
		}
		mod, err := ev.eval(t.Mod, cap)
		if err != nil {
			return prob.Dist{}, err
		}
		op := func(a, b value.V) value.V { return algebra.Action(s, mo, a, b) }
		return prob.Convolve(sc, mod, op, cap), nil
	case *CmpNode:
		l, err := ev.eval(t.L, t.Cap)
		if err != nil {
			return prob.Dist{}, err
		}
		r, err := ev.eval(t.R, nil)
		if err != nil {
			return prob.Dist{}, err
		}
		d := prob.CmpConvolve(l, r, t.Th)
		return prob.Map(d, s.Normalise), nil
	case *ExclusiveNode:
		branches := make([]prob.Dist, len(t.Branches))
		weights := make([]float64, len(t.Branches))
		for i, br := range t.Branches {
			d, err := ev.eval(br.Child, cap)
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
