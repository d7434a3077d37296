package expr

import (
	"fmt"

	"pvcagg/internal/algebra"
	"pvcagg/internal/value"
)

// Valuation is a total assignment ν : X → S of semiring values to
// variables, one sample point of the probability space Ω (Definition 1).
type Valuation map[string]value.V

// Eval applies the semiring (and monoid) homomorphism induced by ν
// (Section 3, "Semiring, Monoid, and Semimodule Homomorphism"): variables
// are replaced by their values, + and · become the semiring operations of
// s, semimodule sums become monoid operations, ⊗ becomes the scalar
// action, and conditional expressions evaluate to 1S or 0S per Eq. (2).
// Unbound variables are an error.
func Eval(e Expr, nu Valuation, s algebra.Semiring) (value.V, error) {
	switch n := e.(type) {
	case Var:
		v, ok := nu[n.Name]
		if !ok {
			return value.V{}, fmt.Errorf("expr: unbound variable %q", n.Name)
		}
		return s.Normalise(v), nil
	case Const:
		return s.Normalise(n.V), nil
	case MConst:
		return n.V, nil
	case Add:
		acc := s.Zero()
		for _, t := range n.Terms {
			v, err := Eval(t, nu, s)
			if err != nil {
				return value.V{}, err
			}
			acc = s.Add(acc, v)
		}
		return acc, nil
	case Mul:
		acc := s.One()
		for _, f := range n.Factors {
			v, err := Eval(f, nu, s)
			if err != nil {
				return value.V{}, err
			}
			acc = s.Mul(acc, v)
		}
		return acc, nil
	case Tensor:
		sv, err := Eval(n.Scalar, nu, s)
		if err != nil {
			return value.V{}, err
		}
		mv, err := Eval(n.Mod, nu, s)
		if err != nil {
			return value.V{}, err
		}
		return algebra.Action(s, algebra.MonoidFor(n.Agg), sv, mv), nil
	case AggSum:
		mo := algebra.MonoidFor(n.Agg)
		acc := mo.Neutral()
		for _, t := range n.Terms {
			v, err := Eval(t, nu, s)
			if err != nil {
				return value.V{}, err
			}
			acc = mo.Combine(acc, v)
		}
		return acc, nil
	case Cmp:
		l, err := Eval(n.L, nu, s)
		if err != nil {
			return value.V{}, err
		}
		r, err := Eval(n.R, nu, s)
		if err != nil {
			return value.V{}, err
		}
		if n.Th.Apply(l, r) {
			return s.One(), nil
		}
		return s.Zero(), nil
	default:
		return value.V{}, fmt.Errorf("expr: unknown node %T", e)
	}
}

// MustEval is Eval for expressions known to be closed and well-formed.
func MustEval(e Expr, nu Valuation, s algebra.Semiring) value.V {
	v, err := Eval(e, nu, s)
	if err != nil {
		panic(err)
	}
	return v
}
