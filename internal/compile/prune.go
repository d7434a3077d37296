package compile

import (
	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// This file implements the "Pruning Conditional Expressions" optimisation
// of Section 5: algebraic rules that remove redundant semimodule terms
// from comparisons, interval analysis that decides comparisons outright,
// the distribution caps that bound convolution sizes during d-tree
// evaluation, and pruneProduct, which judges a comparison next to its
// sibling factors. The functions are free of compiler state so the exact
// and anytime engines share them; the callers account the counts they
// return (terms dropped by pruneCmp, factors removed by pruneProduct).
//
// pruneProduct applies two rules to the factors of a product:
//
//	(a) Implied guard. A factor [Ψ1+…+Ψm ≠ 0] (or [Ψ ≠ 0]) is dropped
//	    when a sibling [Φ1⊗α1 +M … +M Φn⊗αn θ c] has every term a tensor,
//	    {Φi} ⊆ {Ψj} up to expr.Equal and [0M θ c] false, and scalarBounds
//	    bounds the guard's sum (no negative constant or support). The
//	    comparison true ⇒ the module sum ≠ 0M ⇒ some Φi ≠ 0 (0S⊗α = 0M)
//	    ⇒ the guard's sum has a non-zero summand that nothing cancels (B
//	    and N are positive semirings) ⇒ the guard true.
//	(b) Decided comparison. A factor [Φ θ c] or [α θ c] whose left-side
//	    interval (scalarBounds, bounds) decides θ against c alike in every
//	    world becomes that constant: [(Φ+1) ≠ 0] ≡ 1S as soon as a
//	    Shannon branch sets one summand of a guard.

// pruneCmp rewrites [α θ β] into an equivalent expression in simplified
// form with a lone constant side on the right, decided comparisons
// replaced by their constant and redundant terms removed, reporting how
// many terms were dropped. Equivalence is with respect to the
// comparison's distribution, not the operand's. changed is false when
// there was nothing to do: the result is then cm itself, which the caller
// holds in simplified form already.
func pruneCmp(s algebra.Semiring, reg *vars.Registry, cm expr.Cmp) (out expr.Expr, dropped int, changed bool) {
	if isConst(cm.L) && !isConst(cm.R) { // as orient does
		cm, changed = expr.Compare(cm.Th.Flip(), cm.R, cm.L), true
	}
	if cv, ok := constOf(cm.R); ok {
		// Interval analysis: if every world's value of l decides θ against
		// cv the same way, the comparison is constant (subsumes the
		// paper's SUM rule "≡ 1S if Σ mi ≤ m").
		if decided, res := decideCmp(s, reg, cm.L, cm.Th, cv); decided {
			return expr.Const{V: boolTo(s, res)}, 0, true
		}
		if pruned, dropped, ok := pruneTerms(cm.L, cm.Th, cv); ok {
			// The kept terms are simplified; the comparison over them may
			// have become one of two constants.
			return expr.Simplify(expr.Compare(cm.Th, pruned, cm.R), s), dropped, true
		}
	}
	return cm, 0, changed
}

// orient returns the sides of cm with a lone constant side on the right:
// [c θ α] ≡ [α θ.Flip() c].
func orient(cm expr.Cmp) (l, r expr.Expr, th value.Theta) {
	if isConst(cm.L) && !isConst(cm.R) {
		return cm.R, cm.L, cm.Th.Flip()
	}
	return cm.L, cm.R, cm.Th
}

// decideCmp reports whether, and how, interval analysis decides [l θ cv]
// for every world: bounds for a module l, scalarBounds for a semiring l.
func decideCmp(s algebra.Semiring, reg *vars.Registry, l expr.Expr, th value.Theta, cv value.V) (decided, res bool) {
	interval := bounds
	if l.Kind() == expr.KindSemiring {
		interval, cv = scalarBounds, s.Normalise(cv) // cv as Eval reads it
	}
	lo, hi, ok := interval(s, reg, l)
	if !ok {
		return false, false
	}
	return decide(th, lo, hi, cv)
}

// pruneProduct applies rules (a) and (b) above to the factors of a
// simplified product, returning the equivalent simplified expression and
// the number of factors removed — 0 if neither rule fired.
func pruneProduct(s algebra.Semiring, reg *vars.Registry, factors []expr.Expr) (expr.Expr, int) {
	var kept []expr.Expr
	removed := 0
	for i, f := range factors {
		drop := false
		if cm, ok := f.(expr.Cmp); ok {
			l, r, th := orient(cm)
			if cv, ok := constOf(r); ok {
				decided, res := decideCmp(s, reg, l, th, cv)
				if decided && !res {
					return expr.Const{V: s.Zero()}, 1
				}
				drop = decided || (th == value.NE && l.Kind() == expr.KindSemiring &&
					s.Normalise(cv).IsZero() && impliedGuard(s, reg, l, factors))
			}
		}
		if drop {
			if removed++; removed == 1 {
				kept = append(make([]expr.Expr, 0, len(factors)-1), factors[:i]...)
			}
		} else if removed > 0 {
			kept = append(kept, f)
		}
	}
	if removed == 0 {
		return nil, 0
	}
	if len(kept) == 0 {
		return expr.Const{V: s.One()}, removed
	}
	return expr.Product(kept...), removed
}

// impliedGuard reports whether the guard [sum ≠ 0] follows from one of
// its sibling factors by rule (a).
func impliedGuard(s algebra.Semiring, reg *vars.Registry, sum expr.Expr, factors []expr.Expr) bool {
	psis := []expr.Expr{sum}
	if a, ok := sum.(expr.Add); ok {
		psis = a.Terms
	}
	for _, f := range factors {
		cm, ok := f.(expr.Cmp)
		if !ok {
			continue
		}
		l, r, th := orient(cm)
		cv, ok := constOf(r)
		agg, isMod := moduleAgg(l)
		if !ok || !isMod || th.Apply(algebra.MonoidFor(agg).Neutral(), cv) {
			continue
		}
		terms := []expr.Expr{l}
		if a, ok := l.(expr.AggSum); ok {
			terms = a.Terms
		}
		if scalarsAmong(terms, psis) {
			_, _, ok := scalarBounds(s, reg, sum)
			return ok
		}
	}
	return false
}

// scalarsAmong reports whether every term is a tensor with a scalar among
// psis; a search resumes after the last match (linear for aligned sums).
func scalarsAmong(terms, psis []expr.Expr) bool {
	next := 0
	for _, t := range terms {
		tensor, ok := t.(expr.Tensor)
		k := 0
		for ok && k < len(psis) && !expr.Equal(tensor.Scalar, psis[(next+k)%len(psis)]) {
			k++
		}
		if !ok || k == len(psis) {
			return false
		}
		next = (next + k + 1) % len(psis)
	}
	return true
}

// pruneTerms applies the monoid-specific term-pruning rules against the
// constant cv. For MIN: terms whose value can never fall on the deciding
// side of cv are dropped (paper's rule [Σmin Φi⊗mi ≤ m] ≡ [Σ_{mi≤m} … ≤ m]);
// MAX mirrors MIN. SUM/COUNT/PROD terms are never dropped (every term can
// shift the aggregate) — those rely on interval analysis and capping.
func pruneTerms(l expr.Expr, th value.Theta, cv value.V) (expr.Expr, int, bool) {
	sum, ok := l.(expr.AggSum)
	if !ok {
		return nil, 0, false
	}
	var keep func(m value.V) bool
	switch sum.Agg {
	case algebra.Min:
		// Irrelevant MIN terms are those with m > cv — they can never be
		// the deciding minimum. Boundary cases depend on θ.
		switch th {
		case value.LT, value.GE:
			keep = func(m value.V) bool { return m.Less(cv) }
		default: // LE, GT, EQ, NE
			keep = func(m value.V) bool { return !cv.Less(m) }
		}
	case algebra.Max:
		switch th {
		case value.GT, value.LE:
			keep = func(m value.V) bool { return cv.Less(m) }
		default: // GE, LT, EQ, NE
			keep = func(m value.V) bool { return !m.Less(cv) }
		}
	default:
		return nil, 0, false
	}
	kept := make([]expr.Expr, 0, len(sum.Terms))
	dropped := 0
	for _, t := range sum.Terms {
		if m, ok := termValue(t); ok && !keep(m) {
			dropped++
			continue
		}
		kept = append(kept, t)
	}
	if dropped == 0 {
		return nil, 0, false
	}
	if len(kept) == 0 {
		return expr.MConst{V: algebra.MonoidFor(sum.Agg).Neutral()}, dropped, true
	}
	return expr.MSum(sum.Agg, kept...), dropped, true
}

// termValue extracts the monoid constant of a term Φ ⊗ m or m.
func termValue(t expr.Expr) (value.V, bool) {
	switch n := t.(type) {
	case expr.MConst:
		return n.V, true
	case expr.Tensor:
		if mc, ok := n.Mod.(expr.MConst); ok {
			return mc.V, true
		}
	}
	return value.V{}, false
}

// decide checks whether [v θ cv] has the same outcome for every v in
// [lo, hi]; if so it returns that outcome. For the monotone relations the
// endpoints agreeing decides the interval; for EQ/NE the constant must lie
// outside the interval (or the interval must be a point).
func decide(th value.Theta, lo, hi, cv value.V) (bool, bool) {
	switch th {
	case value.EQ:
		if cv.Less(lo) || hi.Less(cv) {
			return true, false
		}
		if lo == hi { // point interval containing cv
			return true, true
		}
		return false, false
	case value.NE:
		if cv.Less(lo) || hi.Less(cv) {
			return true, true
		}
		if lo == hi {
			return true, false
		}
		return false, false
	default:
		atLo, atHi := th.Apply(lo, cv), th.Apply(hi, cv)
		if atLo == atHi {
			return true, atLo
		}
		return false, false
	}
}

// bounds computes an interval [lo, hi] containing every possible value of
// the module expression e, using the variable supports in the registry.
// The third result is false when no finite analysis is possible.
func bounds(s algebra.Semiring, reg *vars.Registry, e expr.Expr) (value.V, value.V, bool) {
	switch n := e.(type) {
	case expr.MConst:
		return n.V, n.V, true
	case expr.Tensor:
		mo := algebra.MonoidFor(n.Agg)
		mlo, mhi, ok := bounds(s, reg, n.Mod)
		if !ok {
			return value.V{}, value.V{}, false
		}
		slo, shi, ok := scalarBounds(s, reg, n.Scalar)
		if !ok {
			return value.V{}, value.V{}, false
		}
		// Candidate extreme outcomes of Action over the corner points.
		cands := []value.V{
			algebra.Action(s, mo, slo, mlo),
			algebra.Action(s, mo, slo, mhi),
			algebra.Action(s, mo, shi, mlo),
			algebra.Action(s, mo, shi, mhi),
		}
		// Scalars strictly between the corners can produce the neutral
		// (s = 0) or intermediate multiples; include the neutral when 0
		// is in the scalar range, and note that SUM action is monotone
		// in s for fixed m ≥ 0 — for mixed-sign m the corner products
		// already cover the extremes.
		if !value.Int(0).Less(slo) {
			cands = append(cands, mo.Neutral())
		}
		lo, hi := cands[0], cands[0]
		for _, v := range cands[1:] {
			lo, hi = lo.Min(v), hi.Max(v)
		}
		return lo, hi, true
	case expr.AggSum:
		mo := algebra.MonoidFor(n.Agg)
		lo, hi := mo.Neutral(), mo.Neutral()
		for _, t := range n.Terms {
			tlo, thi, ok := bounds(s, reg, t)
			if !ok {
				return value.V{}, value.V{}, false
			}
			switch n.Agg {
			case algebra.Sum, algebra.Count:
				lo, hi = lo.Add(tlo), hi.Add(thi)
			case algebra.Min:
				// The term may be absent (neutral +∞), so only the lower
				// bound tightens.
				lo = lo.Min(tlo)
			case algebra.Max:
				hi = hi.Max(thi)
			default:
				return value.V{}, value.V{}, false
			}
		}
		return lo, hi, true
	default:
		return value.V{}, value.V{}, false
	}
}

// scalarBounds computes an interval for a semiring expression, assuming
// non-negative variable supports (it bails out otherwise, keeping the
// product rule sound).
func scalarBounds(s algebra.Semiring, reg *vars.Registry, e expr.Expr) (value.V, value.V, bool) {
	switch n := e.(type) {
	case expr.Const:
		v := s.Normalise(n.V)
		if v.Less(value.Int(0)) {
			return value.V{}, value.V{}, false
		}
		return v, v, true
	case expr.Var:
		d, err := reg.DistByID(n.ID())
		if err != nil {
			return value.V{}, value.V{}, false
		}
		pairs := d.Pairs()
		lo := s.Normalise(pairs[0].V)
		hi := s.Normalise(pairs[len(pairs)-1].V)
		for _, p := range pairs {
			nv := s.Normalise(p.V)
			lo, hi = lo.Min(nv), hi.Max(nv)
		}
		if lo.Less(value.Int(0)) {
			return value.V{}, value.V{}, false
		}
		return lo, hi, true
	case expr.Add:
		lo, hi := value.Int(0), value.Int(0)
		if s.Kind() == algebra.Boolean {
			// Boolean sum is disjunction: bounded by [max lo, max hi]
			// with saturation at 1.
			for _, t := range n.Terms {
				tlo, thi, ok := scalarBounds(s, reg, t)
				if !ok {
					return value.V{}, value.V{}, false
				}
				lo = lo.Max(tlo)
				hi = hi.Max(thi)
			}
			return lo, hi, true
		}
		for _, t := range n.Terms {
			tlo, thi, ok := scalarBounds(s, reg, t)
			if !ok {
				return value.V{}, value.V{}, false
			}
			lo, hi = lo.Add(tlo), hi.Add(thi)
		}
		return lo, hi, true
	case expr.Mul:
		lo, hi := value.Int(1), value.Int(1)
		for _, f := range n.Factors {
			flo, fhi, ok := scalarBounds(s, reg, f)
			if !ok {
				return value.V{}, value.V{}, false
			}
			lo, hi = lo.Mul(flo), hi.Mul(fhi)
		}
		return lo, hi, true
	case expr.Cmp:
		return value.Int(0), value.Int(1), true
	default:
		return value.V{}, value.V{}, false
	}
}

// capFor derives the distribution cap for an independent comparison
// [α θ β]: values of α beyond the largest possible value of β are
// equivalent (they compare identically against every β outcome), so the
// evaluator may collapse them during every intermediate convolution under
// this node. Intermediate capping is sound only for monoids whose
// combination cannot bring a value back below the cap: MIN, MAX, and
// SUM/COUNT when every contribution is non-negative. For the last it is
// not enough that the whole sum is: the evaluator clamps partial sums, in
// whatever order the d-tree (or a fold) adds them, and a later negative
// summand would bring a clamped one back below the cap.
func capFor(s algebra.Semiring, reg *vars.Registry, cm expr.Cmp) *prob.Cap {
	if cm.L.Kind() != expr.KindModule {
		return nil
	}
	agg, ok := moduleAgg(cm.L)
	if !ok {
		return nil
	}
	switch agg {
	case algebra.Min, algebra.Max:
		// always sound
	case algebra.Sum, algebra.Count:
		if !nonNegative(cm.L) {
			return nil
		}
	default:
		return nil // PROD: growth is multiplicative; skip capping
	}
	// Limit: the largest value of the right side that can influence the
	// outcome.
	var limit value.V
	if cv, ok := constOf(cm.R); ok {
		limit = cv
	} else if _, hi, ok := bounds(s, reg, cm.R); ok && hi.IsInt() {
		limit = hi
	} else {
		return nil
	}
	if !limit.IsInt() {
		return nil
	}
	return &prob.Cap{Above: true, Limit: limit}
}

// nonNegative reports whether every monoid constant of the module
// expression e is ≥ 0. Then so is every partial sum of e: the scalars a
// constant is multiplied by are elements of B or N.
func nonNegative(e expr.Expr) bool {
	switch n := e.(type) {
	case expr.MConst:
		return !n.V.Less(value.Int(0))
	case expr.Tensor:
		return nonNegative(n.Mod)
	case expr.AggSum:
		for _, t := range n.Terms {
			if !nonNegative(t) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// moduleAgg returns the aggregation monoid of a module expression.
func moduleAgg(e expr.Expr) (algebra.Agg, bool) {
	switch n := e.(type) {
	case expr.AggSum:
		return n.Agg, true
	case expr.Tensor:
		return n.Agg, true
	case expr.MConst:
		return 0, false
	default:
		return 0, false
	}
}

func isConst(e expr.Expr) bool {
	switch e.(type) {
	case expr.Const, expr.MConst:
		return true
	}
	return false
}

func constOf(e expr.Expr) (value.V, bool) {
	switch n := e.(type) {
	case expr.Const:
		return n.V, true
	case expr.MConst:
		return n.V, true
	}
	return value.V{}, false
}

func boolTo(s algebra.Semiring, b bool) value.V {
	if b {
		return s.One()
	}
	return s.Zero()
}
