package compile

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"time"

	"pvcagg/internal/algebra"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// This file implements the anytime approximate probability engine in the
// spirit of the Fink/Olteanu line of anytime approximation: instead of
// compiling a conditional expression into a complete d-tree (exponential in
// the worst case, Section 5), the expression is expanded incrementally.
// Every *uncompiled* frontier sub-expression contributes interval bounds
// [lo, hi] on its truth probability to its parent; expanded regions
// contribute exact point probabilities. The partial tree combines child
// intervals with interval arithmetic that is sound for independent parts
// (the same independence the exact decomposition rules exploit) and for
// mutex (Shannon) expansions, so at every step the root interval brackets
// the exact truth probability. A priority-driven frontier always expands
// the leaf with the largest contribution to the root's bound width, and
// expansion stops as soon as hi − lo ≤ ε (or a node/expansion/time budget
// runs out).
//
// Frontier leaves are closed exactly by the run's one exact compiler, each
// attempt under a small node budget — this is where the pruning rules and
// interval analysis of prune.go decide comparisons outright and keep the
// expanded region tiny. The compiler's memo outlives an attempt: a d-tree
// depends on its sub-expression alone, so the sub-d-trees an attempt
// finished before its budget ran out are kept, and the next attempt on
// that leaf, or on the Shannon branches below it (the frontier chooses
// and restricts variables as the compiler does, so a branch is the same
// memo key), resumes from them. Anytime is exact compilation interrupted:
// run to a point it builds the exact d-tree and little besides, which is
// why ε = 0 is not an anytime request but the exact strategy's.

// ErrNodeBudget is wrapped by compilation errors caused by the MaxNodes
// budget (as opposed to malformed expressions); the anytime engine uses it
// to distinguish "too hard for this budget" from genuine failures.
var ErrNodeBudget = errors.New("node budget exceeded")

// Bounds is an interval [Lo, Hi] guaranteed to contain the exact truth
// probability of the approximated expression.
type Bounds struct {
	Lo, Hi float64
}

// Width returns Hi − Lo, the approximation error guarantee.
func (b Bounds) Width() float64 { return b.Hi - b.Lo }

// Contains reports whether p lies in [Lo−tol, Hi+tol].
func (b Bounds) Contains(p, tol float64) bool {
	return p >= b.Lo-tol && p <= b.Hi+tol
}

// Point returns the exact interval [p, p].
func Point(p float64) Bounds { return Bounds{p, p} }

func (b Bounds) String() string {
	return fmt.Sprintf("[%.6g, %.6g]", b.Lo, b.Hi)
}

// ApproxOptions configure anytime approximation. Eps must be set; the
// budgets default to the values their fields name.
type ApproxOptions struct {
	// Eps is the target bound width, in (0, 1): expansion stops once
	// Hi − Lo ≤ Eps. An exact answer is the exact strategy's (compile,
	// then dtree.Evaluate); there is no anytime run at Eps = 0.
	Eps float64
	// MaxLeafNodes is the number of new d-tree nodes one attempt to close
	// a popped frontier leaf exactly may build (0 ⇒ 512): one slice of
	// work. A leaf whose attempt runs out stays on the frontier and is
	// refined by Shannon expansion; what the attempt built is kept for
	// the attempts that follow.
	MaxLeafNodes int
	// MaxExpansions bounds the number of Shannon expansions of the
	// frontier (0 ⇒ unlimited). When exhausted, the current (sound but
	// possibly wider than Eps) bounds are returned with Converged = false.
	MaxExpansions int
	// MaxNodes bounds the total work (ApproxReport.TotalNodes):
	// partial-tree nodes plus every d-tree node the exact leaf closures
	// build, evaluated or not (0 ⇒ unlimited).
	MaxNodes int
	// Timeout bounds wall-clock time (0 ⇒ unlimited).
	Timeout time.Duration
}

func (o ApproxOptions) leafBudget() int {
	if o.MaxLeafNodes <= 0 {
		return 512
	}
	return o.MaxLeafNodes
}

// ApproxReport describes one anytime computation.
type ApproxReport struct {
	Converged   bool // Width() ≤ Eps on return
	Expansions  int  // Shannon expansions of frontier leaves
	TreeNodes   int  // partial-tree nodes created
	ExactNodes  int  // d-tree nodes evaluated: those of the leaves closed exactly
	WastedNodes int  // d-tree nodes built but never evaluated
}

// TotalNodes is the total work proxy: partial-tree nodes plus every d-tree
// node the closure attempts built — evaluated, or left by an attempt that
// ran out of budget and never reached by one that closed.
// ApproxOptions.MaxNodes bounds this quantity.
func (r ApproxReport) TotalNodes() int { return r.TreeNodes + r.ExactNodes + r.WastedNodes }

// ApproximateCtx computes guaranteed bounds on the truth probability of
// the semiring expression e (the probability that e is non-zero — the
// confidence of a tuple annotated with e), expanding only as much of the
// decomposition as the target width requires. The returned interval always
// contains the exact probability; Converged reports whether the target was
// reached within the budgets. The frontier loop polls ctx between
// expansions and every exact leaf closure compiles under it, so
// cancellation aborts the computation promptly with ctx.Err()
// (cancellation is an error, not an early convergence — no partial bounds
// are returned).
func ApproximateCtx(ctx context.Context, s algebra.Semiring, reg *vars.Registry, e expr.Expr, opts ApproxOptions) (Bounds, ApproxReport, error) {
	if err := ctx.Err(); err != nil {
		return Bounds{}, ApproxReport{}, err
	}
	if e.Kind() != expr.KindSemiring {
		return Bounds{}, ApproxReport{}, fmt.Errorf("compile: anytime bounds of a module expression %s", expr.Abbrev(e))
	}
	if !(opts.Eps > 0 && opts.Eps < 1) {
		return Bounds{}, ApproxReport{}, fmt.Errorf("compile: epsilon %v out of range (0, 1)", opts.Eps)
	}
	if err := expr.Validate(e); err != nil {
		return Bounds{}, ApproxReport{}, err
	}
	if err := reg.CheckDeclared(e); err != nil {
		return Bounds{}, ApproxReport{}, err
	}
	// The run's compiler comes from the pool; a run that panics drops it.
	c := Get(s, reg, Options{})
	b, rep, err := approximate(ctx, c, e, opts)
	Put(c)
	return b, rep, err
}

// approximate is ApproximateCtx for a validated e, on c, a compiler that
// has been Reset since its last use, which it leaves to be Reset again.
func approximate(ctx context.Context, c *Compiler, e expr.Expr, opts ApproxOptions) (Bounds, ApproxReport, error) {
	t0 := time.Now()
	// Simplified once, here: every sub-expression the frontier
	// classifies, closes or expands from now on is in simplified form, and
	// the leaf closures compile it without re-checking.
	e = expr.Simplify(e, c.s)
	if c.ev == nil {
		c.ev = dtree.NewEvaluator(dtree.Env{Semiring: c.s, Registry: c.reg})
	}
	ax := &approximator{s: c.s, reg: c.reg, opts: opts, ctx: ctx, c: c}
	c.sc = getScratch(e)
	defer func() {
		putScratch(c.sc)
		c.sc = nil
	}()
	root, err := ax.classify(e)
	if err != nil {
		return Bounds{}, ApproxReport{}, err
	}
	ax.root = root
	if err := ax.run(t0); err != nil {
		return Bounds{}, ApproxReport{}, err
	}
	b := Bounds{root.lo, root.hi}
	ax.rep.Converged = b.Width() <= opts.Eps
	ax.rep.ExactNodes = c.ev.Nodes()
	ax.rep.WastedNodes = ax.built - ax.rep.ExactNodes
	return b, ax.rep, nil
}

// Partial-tree node kinds. The tree mirrors the decomposition rules the
// exact compiler applies, but carries probability intervals instead of
// distributions: exact sub-results are point intervals, unexpanded
// sub-expressions are frontier leaves with a priori bounds.
type anodeKind int

const (
	nkPoint    anodeKind = iota // resolved: lo == hi
	nkFrontier                  // uncompiled sub-expression
	nkMix                       // ⊔x: mutex mixture of branches
	nkOr                        // independent sum (truth = disjunction)
	nkAnd                       // independent product (truth = conjunction)
)

type anode struct {
	kind     anodeKind
	lo, hi   float64
	e        expr.Expr // frontier only: the residual sub-expression
	parent   *anode
	children []*anode
	weights  []float64 // mix only: branch probabilities
	// heap bookkeeping for frontier leaves (lazy priority queue).
	prio float64
}

// recompute refreshes [lo, hi] of an inner node from its children:
//
//	⊔x:  lo = Σ pi·loi          hi = Σ pi·hii          (Eq. (10))
//	or:  lo = 1 − Π (1 − loi)   hi = 1 − Π (1 − hii)   (independent parts)
//	and: lo = Π loi             hi = Π hii
//
// The or/and rules are the truth-probability images of the exact ⊕/⊙
// convolutions: over non-negative carriers a sum is non-zero iff some
// summand is, and a product is non-zero iff every factor is.
func (n *anode) recompute() {
	switch n.kind {
	case nkPoint, nkFrontier:
		return
	case nkMix:
		lo, hi := 0.0, 0.0
		for i, c := range n.children {
			lo += n.weights[i] * c.lo
			hi += n.weights[i] * c.hi
		}
		n.lo, n.hi = clamp01(lo), clamp01(hi)
	case nkOr:
		plo, phi := 1.0, 1.0
		for _, c := range n.children {
			plo *= 1 - c.lo
			phi *= 1 - c.hi
		}
		n.lo, n.hi = clamp01(1-plo), clamp01(1-phi)
	case nkAnd:
		lo, hi := 1.0, 1.0
		for _, c := range n.children {
			lo *= c.lo
			hi *= c.hi
		}
		n.lo, n.hi = clamp01(lo), clamp01(hi)
	}
	if n.hi < n.lo { // float round-off on the combination rules
		n.hi = n.lo
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// contribution estimates how much of the root's bound width is attributable
// to leaf n: its own width scaled by the sensitivity of the root interval to
// n along the parent chain — branch probability through ⊔, the product of
// the siblings' residual upper slack through or/and. Sibling bounds only
// tighten over time, so a leaf's contribution never increases; the frontier
// heap exploits this monotonicity for lazy priority maintenance.
func (n *anode) contribution() float64 {
	w := n.hi - n.lo
	child := n
	for p := child.parent; p != nil && w > 0; p = child.parent {
		switch p.kind {
		case nkMix:
			for i, c := range p.children {
				if c == child {
					w *= p.weights[i]
					break
				}
			}
		case nkOr:
			for _, c := range p.children {
				if c != child {
					w *= 1 - c.lo
				}
			}
		case nkAnd:
			for _, c := range p.children {
				if c != child {
					w *= c.hi
				}
			}
		}
		child = p
	}
	return w
}

// frontierHeap is a max-heap of open frontier leaves ordered by (possibly
// stale) contribution. Priorities only decrease, so a popped leaf whose
// fresh contribution still beats the next entry is safe to expand.
type frontierHeap []*anode

func (h frontierHeap) Len() int           { return len(h) }
func (h frontierHeap) Less(i, j int) bool { return h[i].prio > h[j].prio }
func (h frontierHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *frontierHeap) Push(x any)        { *h = append(*h, x.(*anode)) }
func (h *frontierHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

type approximator struct {
	s        algebra.Semiring
	reg      *vars.Registry
	opts     ApproxOptions
	ctx      context.Context
	root     *anode
	frontier frontierHeap
	rep      ApproxReport
	// c is the run's one exact compiler: every closure attempt is a
	// compilation of c under that attempt's budget, so its memo — every
	// sub-d-tree any attempt finished — and its scratch serve the whole
	// run, all of whose attempts compile residuals of one root. Its
	// keeping evaluator, c.ev, evaluates the d-trees of the closures that
	// succeed: they are trees of one memo and share nodes, which it
	// evaluates once.
	c *Compiler
	// built counts the d-tree nodes c has built, evaluated or not.
	built int
}

// cheapBudget is the node budget of the closure probe every classified
// sub-expression gets; the full leaf budget is invested only when a
// frontier leaf is actually popped for expansion.
const cheapBudget = 64

func (ax *approximator) newNode(n *anode) *anode {
	ax.rep.TreeNodes++
	return n
}

// classify turns a (simplified) semiring sub-expression into a partial-tree
// node: constants evaluate, cheap sub-expressions close exactly under the
// probe budget, independent sums/products split structurally, and
// everything else becomes a frontier leaf with bounds [0, 1].
func (ax *approximator) classify(e expr.Expr) (*anode, error) {
	if !expr.HasVars(e) {
		v, err := expr.Eval(e, nil, ax.s)
		if err != nil {
			return nil, err
		}
		p := 0.0
		if ax.s.Normalise(v).Truth() {
			p = 1.0
		}
		return ax.newNode(&anode{kind: nkPoint, lo: p, hi: p}), nil
	}
	// Try to close the leaf exactly under the probe budget. The exact
	// compiler brings the full arsenal — pruning, interval decision
	// (prune.go's bounds/decide), factoring, memoisation — so decidable
	// comparisons and tractable residuals resolve here at tiny cost.
	p, closed, err := ax.close(e, min(cheapBudget, ax.opts.leafBudget()))
	if err != nil {
		return nil, err
	}
	if closed {
		return ax.newNode(&anode{kind: nkPoint, lo: p, hi: p}), nil
	}
	// Keep frontier comparisons pruned: dropping provably redundant terms
	// here (rather than only inside closure probes) shrinks every later
	// substitution, memo key and Shannon expansion of this leaf.
	if cm, ok := e.(expr.Cmp); ok {
		if pruned, _, changed := pruneCmp(ax.s, ax.reg, cm); changed {
			return ax.classify(pruned)
		}
	}
	// Structural splits on independent parts, mirroring rules 2 and 3 of
	// the exact compiler, over the same groups.
	switch t := e.(type) {
	case expr.Add:
		if groups := ax.c.sc.components(t.Terms, expr.AdoptSum); groups != nil {
			defer ax.c.sc.popGroups(groups)
			if ax.sumSplitsSound(groups) {
				return ax.split(nkOr, groups)
			}
		}
	case expr.Mul:
		// The same product-level pruning the exact compiler starts with.
		if pruned, n := pruneProduct(ax.s, ax.reg, t.Factors); n > 0 {
			return ax.classify(pruned)
		}
		if groups := ax.c.sc.components(t.Factors, expr.AdoptProduct); groups != nil {
			defer ax.c.sc.popGroups(groups)
			return ax.split(nkAnd, groups)
		}
	}
	leaf := ax.newNode(&anode{kind: nkFrontier, lo: 0, hi: 1, e: e})
	return leaf, nil
}

// sumSplitsSound reports whether the disjunction rule applies to an
// independent sum split: truth(Σ) = ∨ truth(group) requires that no
// cancellation across groups is possible. The Boolean semiring is always
// safe (+ is ∨); for the Natural semiring, interval analysis must prove
// every group non-negative (scalarBounds bails out on any negative constant
// or variable support, so success implies no negative contribution).
func (ax *approximator) sumSplitsSound(groups []expr.Expr) bool {
	if ax.s.Kind() == algebra.Boolean {
		return true
	}
	for _, g := range groups {
		lo, _, ok := scalarBounds(ax.s, ax.reg, g)
		if !ok || lo.Less(value.Int(0)) {
			return false
		}
	}
	return true
}

func (ax *approximator) split(kind anodeKind, groups []expr.Expr) (*anode, error) {
	n := ax.newNode(&anode{kind: kind})
	n.children = make([]*anode, 0, len(groups))
	for _, g := range groups {
		c, err := ax.classify(g)
		if err != nil {
			return nil, err
		}
		c.parent = n
		n.children = append(n.children, c)
	}
	n.recompute()
	return n, nil
}

// work is the run's TotalNodes so far.
func (ax *approximator) work() int { return ax.rep.TreeNodes + ax.built }

// close attempts to resolve e exactly, building at most budget new d-tree
// nodes. It reports the truth probability and whether the closure
// succeeded. An attempt that runs out of budget leaves what it finished in
// the compiler's memo, where the next attempt on e or on a residual of it
// finds it.
func (ax *approximator) close(e expr.Expr, budget int) (float64, bool, error) {
	// MaxNodes bounds TotalNodes, and closure attempts are where nodes are
	// created: clamp every attempt to the remaining allowance so the cap
	// cannot be overshot between the run loop's checks.
	if ax.opts.MaxNodes > 0 {
		remaining := ax.opts.MaxNodes - ax.work()
		if remaining <= 0 {
			return 0, false, nil
		}
		budget = min(budget, remaining)
	}
	ax.c.opts.MaxNodes = budget
	res, err := ax.c.compileSimplified(ax.ctx, e)
	ax.built += res.Stats.Nodes
	if errors.Is(err, ErrNodeBudget) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	d, err := ax.c.ev.Evaluate(res.Root)
	if err != nil {
		return 0, false, err
	}
	return d.TruthProbability(), true, nil
}

// run drives the priority frontier until the root interval is within ε or a
// budget runs out.
func (ax *approximator) run(t0 time.Time) error {
	ax.collectFrontier(ax.root)
	heap.Init(&ax.frontier)
	for ax.root.hi-ax.root.lo > ax.opts.Eps {
		if err := ax.ctx.Err(); err != nil {
			return err
		}
		if ax.opts.MaxExpansions > 0 && ax.rep.Expansions >= ax.opts.MaxExpansions {
			return nil
		}
		if ax.opts.MaxNodes > 0 && ax.work() >= ax.opts.MaxNodes {
			return nil
		}
		if ax.opts.Timeout > 0 && time.Since(t0) >= ax.opts.Timeout {
			return nil
		}
		leaf := ax.popBest()
		if leaf == nil {
			return nil // fully expanded; bounds are exact
		}
		if err := ax.expand(leaf); err != nil {
			return err
		}
	}
	return nil
}

// collectFrontier pushes every frontier leaf below n onto the heap.
func (ax *approximator) collectFrontier(n *anode) {
	if n.kind == nkFrontier {
		n.prio = n.contribution()
		ax.frontier = append(ax.frontier, n)
		return
	}
	for _, c := range n.children {
		ax.collectFrontier(c)
	}
}

// popBest returns the open frontier leaf with the largest current
// contribution, refreshing stale priorities lazily (contributions only
// decrease, so an entry that still wins after refresh is the true maximum).
func (ax *approximator) popBest() *anode {
	for ax.frontier.Len() > 0 {
		leaf := heap.Pop(&ax.frontier).(*anode)
		if leaf.kind != nkFrontier {
			continue // expanded in place since it was pushed
		}
		fresh := leaf.contribution()
		if ax.frontier.Len() == 0 || fresh >= ax.frontier[0].prio {
			return leaf
		}
		leaf.prio = fresh
		heap.Push(&ax.frontier, leaf)
	}
	return nil
}

// expand refines a frontier leaf. The leaf was popped as the largest
// contributor to the root width, so the full per-leaf budget is invested
// in an exact closure first; if the residual is still too hard, the leaf
// Shannon-expands into a ⊔x mixture whose branches are the classified
// residuals e|x←v, and the refreshed interval propagates to the root. The
// variable choice and the restriction are the exact compiler's, so ε→0
// retraces the exact expansion order and every branch is a memo key the
// failed attempt may already have compiled.
func (ax *approximator) expand(leaf *anode) error {
	p, closed, err := ax.close(leaf.e, ax.opts.leafBudget())
	if err != nil {
		return err
	}
	if closed {
		leaf.kind = nkPoint
		leaf.lo, leaf.hi = p, p
		leaf.e = nil
		for n := leaf.parent; n != nil; n = n.parent {
			n.recompute()
		}
		return nil
	}
	x, _ := chooseVariable(leaf.e, &ax.c.sc.vs)
	d, err := ax.reg.DistByID(x)
	if err != nil {
		return err
	}
	ax.rep.Expansions++
	children := make([]*anode, 0, d.Size())
	weights := make([]float64, 0, d.Size())
	for _, pair := range d.Pairs() {
		c, err := ax.classify(ax.c.sc.cof.Restrict(leaf.e, x, pair.V, ax.s))
		if err != nil {
			return err
		}
		c.parent = leaf
		children = append(children, c)
		weights = append(weights, pair.P)
	}
	leaf.kind = nkMix
	leaf.e = nil
	leaf.children = children
	leaf.weights = weights
	// Propagate the tightened interval to the root, then enqueue the new
	// frontier leaves with their contributions under the refreshed bounds.
	for n := leaf; n != nil; n = n.parent {
		n.recompute()
	}
	for _, c := range children {
		ax.enqueueFrontier(c)
	}
	return nil
}

// enqueueFrontier pushes every frontier leaf at or below n onto the heap.
// Recursion matters: classify returns or/and split nodes whose frontier
// leaves sit below the direct children of an expansion.
func (ax *approximator) enqueueFrontier(n *anode) {
	if n.kind == nkFrontier {
		n.prio = n.contribution()
		heap.Push(&ax.frontier, n)
		return
	}
	for _, c := range n.children {
		ax.enqueueFrontier(c)
	}
}
