// Package compile implements Algorithm 1 of the paper: compilation of
// arbitrary semiring and semimodule expressions into decomposition trees.
// The six decomposition rules are applied in order (the numbers are the
// ones Stats and the comments below use):
//
//  1. constant expressions become leaves;
//  2. sums split into independent summands (connected components of the
//     clause-dependency graph), with read-once factoring of common
//     variables inside a component;
//  3. products split into independent factor groups;
//  4. tensors Φ ⊗ α split when scalar and module sides are independent;
//  5. comparisons [Φ θ Ψ] split when the sides are independent, after the
//     pruning rules for conditional expressions have been applied — to
//     a comparison alone, and before rule 3 to a product's factors
//     together (prune.go): a guard [ΣΨj ≠ 0] beside [ΣΦi⊗αi θ c] with
//     {Φi} ⊆ {Ψj} and [0M θ c] false is implied by it and dropped, and
//     any comparison whose interval decides it becomes a constant, so σ
//     over an aggregate costs at most one ⊔ per variable, not 2ⁿ−1;
//  6. otherwise a variable is eliminated by Shannon (mutex) expansion ⊔x,
//     choosing by default the variable with most occurrences.
//
// Independence (rules 2–5) is read off the variable signatures cached on
// expression nodes wherever they are exact, and a Shannon step allocates
// what it changes: see scratch.go and expr.Scratch.
//
// Compilation is memoised on the cached structural hash of
// sub-expressions (with structural equality resolving collisions), so
// repeated sub-problems (ubiquitous under Shannon expansion) compile once
// and the resulting d-tree is a DAG. Every node is marked for the
// evaluator: unique when created, shared when a memo hit reuses it. The
// memo outlives a compilation — an anytime run compiles all its leaf
// closures with one Compiler — so a node may gain its second parent after
// a tree it was unique in has been evaluated (dtree.NewEvaluator).
package compile

import (
	"context"
	"fmt"

	"pvcagg/internal/algebra"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/vars"
)

// VarOrder selects the Shannon-expansion variable-choice heuristic.
type VarOrder int

const (
	// MostOccurrences picks the variable occurring most often (the
	// paper's choice, after [18]). Ties break lexicographically.
	MostOccurrences VarOrder = iota
	// LeastOccurrences picks the rarest variable (ablation baseline).
	LeastOccurrences
	// Lexicographic picks the alphabetically first variable (ablation).
	Lexicographic
)

// Options configure compilation. The zero value enables every technique
// described in the paper.
type Options struct {
	// DisablePruning turns off the conditional-expression pruning rules
	// and distribution capping (ablation).
	DisablePruning bool
	// DisableMemo turns off sub-expression memoisation (ablation).
	DisableMemo bool
	// DisableFactoring turns off read-once common-variable factoring
	// (ablation); sums that do not split then go straight to Shannon.
	DisableFactoring bool
	// Order is the Shannon variable-choice heuristic.
	Order VarOrder
	// MaxNodes aborts compilation when the d-tree exceeds this many
	// nodes (0 means no limit). Compilation of hard expressions is
	// exponential in the worst case (Section 5); the bound turns runaway
	// compilations into errors.
	MaxNodes int
}

// Stats reports how an expression was compiled.
type Stats struct {
	SumSplits     int // rule 2 applications (⊕ between independent parts)
	ProductSplits int // rule 3 applications
	TensorSplits  int // rule 4 applications
	CmpSplits     int // rule 5 applications
	Factorings    int // read-once common-variable factorings (rule 2)
	Shannon       int // rule 6 applications (⊔x expansions)
	PrunedTerms   int // semimodule terms removed by pruning rules
	PrunedGuards  int // product factors dropped as implied or decided (pruneProduct)
	CacheHits     int // memo hits
	Nodes         int // d-tree nodes created
}

// Result is a compiled expression: the d-tree root and compile statistics.
type Result struct {
	Root  dtree.Node
	Stats Stats
}

// Compiler compiles expressions over a fixed semiring and variable
// registry. It is not safe for concurrent use.
type Compiler struct {
	s    algebra.Semiring
	reg  *vars.Registry
	opts Options
	memo exprMemo
	ctx  context.Context
	st   Stats
	// steps counts compile() entries; unlike Stats.Nodes it advances on
	// the way *down* a Shannon descent (whose decision nodes only
	// materialise post-order), so cancellation polls keyed on it reach
	// even a descent that has yet to create its first node.
	steps uint64
	// sc is the scratch of the compilation in progress (scratch.go): an
	// anytime run's, for all the run's leaf closures, or otherwise checked
	// out when the compilation first needs one and returned by
	// compileSimplified.
	sc *scratch
}

// memoEntry pairs a memoised expression with its compiled node; the
// expression is kept to resolve structural-hash collisions by Equal.
type memoEntry struct {
	e expr.Expr
	n dtree.Node
}

// exprMemo is a hash-keyed memo with a two-level layout: the primary map
// stores one entry per hash inline (no per-entry slice allocation — the
// overwhelmingly common case), and the rare colliding entries overflow
// into a lazily-allocated bucket map. Once the memo has been reset, keys
// lists the primary map's keys since the last reset; a memo that is
// never reset (a one-shot compiler's, an anytime run's) keeps no list.
type exprMemo struct {
	prim  map[uint64]memoEntry
	over  map[uint64][]memoEntry
	keys  []uint64
	reuse bool // reset has run
}

func newExprMemo() exprMemo {
	return exprMemo{prim: map[uint64]memoEntry{}}
}

func (m *exprMemo) get(h uint64, e expr.Expr) (dtree.Node, bool) {
	if ent, ok := m.prim[h]; ok {
		if expr.Equal(ent.e, e) {
			return ent.n, true
		}
		for _, ent := range m.over[h] {
			if expr.Equal(ent.e, e) {
				return ent.n, true
			}
		}
	}
	return nil, false
}

func (m *exprMemo) put(h uint64, e expr.Expr, n dtree.Node) {
	if _, ok := m.prim[h]; !ok {
		m.prim[h] = memoEntry{e, n}
		if m.reuse {
			m.keys = append(m.keys, h)
		}
		return
	}
	if m.over == nil {
		m.over = map[uint64][]memoEntry{}
	}
	m.over[h] = append(m.over[h], memoEntry{e, n})
}

// reset empties the memo. A Go map keeps the capacity of its largest
// filling, and clearing it sweeps all of that, so only the first reset
// clears — the map is then as large as what was put — and every later one
// deletes the keys put since.
func (m *exprMemo) reset() {
	if m.reuse {
		for _, h := range m.keys {
			delete(m.prim, h)
		}
	} else {
		clear(m.prim)
		m.reuse = true
	}
	m.keys = m.keys[:0]
	m.over = nil
}

// New returns a Compiler for the given semiring and registry.
func New(s algebra.Semiring, reg *vars.Registry, opts Options) *Compiler {
	return &Compiler{s: s, reg: reg, opts: opts, memo: newExprMemo()}
}

// Reset forgets every sub-expression the compiler has memoised, so that
// the next compilation shares no node with the trees compiled before it,
// as if it ran on a fresh Compiler, but without a fresh memo to allocate
// and grow. It costs what the compilations since the last Reset put in
// the memo.
func (c *Compiler) Reset() { c.memo.reset() }

// ctxCheckMask throttles cancellation polls to one per 256 nodes created:
// node creation is the unit of expansion work, so a runaway Shannon
// expansion notices a cancelled context within a few thousand cheap steps
// (well under a millisecond) without an atomic load on every node.
const ctxCheckMask = 255

// Compile compiles e into a d-tree. The result's distribution (computed by
// dtree.Evaluate) equals the distribution of e over the registry's
// probability space (Proposition 4).
func (c *Compiler) Compile(e expr.Expr) (Result, error) {
	return c.CompileCtx(context.Background(), e)
}

// CompileCtx is Compile under a context: compilation polls ctx at
// expansion steps and aborts with ctx.Err() once it is cancelled, turning
// runaway Shannon expansions into promptly-interruptible work.
func (c *Compiler) CompileCtx(ctx context.Context, e expr.Expr) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := expr.Validate(e); err != nil {
		return Result{}, err
	}
	if err := c.reg.CheckDeclared(e); err != nil {
		return Result{}, err
	}
	return c.compileSimplified(ctx, expr.Simplify(e, c.s))
}

// compileSimplified is CompileCtx for an expression the caller has already
// validated, checked against the registry and brought into simplified
// form — the entry of the anytime engine's leaf closures, whose residuals
// are sub-expressions of one such root.
func (c *Compiler) compileSimplified(ctx context.Context, e expr.Expr) (Result, error) {
	c.ctx = ctx
	c.st = Stats{}
	c.steps = 0
	lent := c.sc != nil
	root, err := c.compile(e)
	if !lent && c.sc != nil { // checked out by compileUncached
		putScratch(c.sc)
		c.sc = nil
	}
	if err != nil {
		// Stats survive failure so callers (notably the anytime engine's
		// budgeted closure attempts) can account for the work done.
		return Result{Stats: c.st}, err
	}
	return Result{Root: root, Stats: c.st}, nil
}

func (c *Compiler) newNode(n dtree.Node) (dtree.Node, error) {
	c.st.Nodes++
	if c.ctx != nil && c.st.Nodes&ctxCheckMask == 0 {
		if err := c.ctx.Err(); err != nil {
			return nil, err
		}
	}
	if c.opts.MaxNodes > 0 && c.st.Nodes > c.opts.MaxNodes {
		return nil, fmt.Errorf("compile: d-tree exceeds %d nodes: %w", c.opts.MaxNodes, ErrNodeBudget)
	}
	// A new node has the one parent its caller is about to give it; only a
	// memo hit in compile hands a node out a second time.
	dtree.MarkUnique(n)
	return n, nil
}

// compile compiles e, which must be in simplified form (expr.Simplify):
// the root is simplified once by CompileCtx, children and regrouped
// children of a simplified node are simplified, expr.Restrict keeps the
// form under Shannon substitution, and the two places that build new
// expressions (factoring residuals, pruned comparisons) re-simplify them.
func (c *Compiler) compile(e expr.Expr) (dtree.Node, error) {
	// A Shannon descent over a large sum does O(|e|) substitution and
	// simplification work per level and creates its decision nodes only
	// post-order, so the newNode poll alone can leave a cancelled
	// context unnoticed for the entire descent. Poll here too, keyed on
	// recursion steps rather than created nodes.
	c.steps++
	if c.ctx != nil && c.steps&ctxCheckMask == 0 {
		if err := c.ctx.Err(); err != nil {
			return nil, err
		}
	}
	// Rule 1: expressions without variables are constant leaves.
	if !expr.HasVars(e) {
		v, err := expr.Eval(e, nil, c.s)
		if err != nil {
			return nil, err
		}
		return c.newNode(&dtree.ConstLeaf{V: v, Module: e.Kind() == expr.KindModule})
	}
	if v, ok := e.(expr.Var); ok {
		return c.newNode(&dtree.VarLeaf{Name: v.Name, ID: v.ID()})
	}
	var h uint64
	memoised := !c.opts.DisableMemo
	if memoised {
		h = expr.Hash(e)
		if n, ok := c.memo.get(h, e); ok {
			c.st.CacheHits++
			dtree.MarkShared(n)
			return n, nil
		}
	}
	n, err := c.compileUncached(e)
	if err != nil {
		return nil, err
	}
	if memoised {
		c.memo.put(h, e, n)
	}
	return n, nil
}

func (c *Compiler) compileUncached(e expr.Expr) (dtree.Node, error) {
	if c.sc == nil {
		// The first expression to get here is the compilation's root: a
		// constant or single-variable root, the annotation of most tuples,
		// never needs a scratch.
		c.sc = getScratch(e)
	}
	switch n := e.(type) {
	case expr.Add:
		return c.compileSum(n.Terms, false, 0, e)
	case expr.AggSum:
		return c.compileSum(n.Terms, true, n.Agg, e)
	case expr.Mul:
		return c.compileProduct(n, e)
	case expr.Tensor:
		return c.compileTensor(n, e)
	case expr.Cmp:
		return c.compileCmp(n)
	default:
		return nil, fmt.Errorf("compile: unexpected node %T", e)
	}
}

// compileSum handles Add (module=false) and AggSum (module=true): rule 2
// (independent partition, then factoring), then Shannon.
func (c *Compiler) compileSum(terms []expr.Expr, module bool, agg algebra.Agg, whole expr.Expr) (dtree.Node, error) {
	groups := c.sc.components(terms)
	if len(groups) > 1 {
		c.st.SumSplits += len(groups) - 1
		parts := make([]dtree.Node, len(groups))
		for i, g := range groups {
			p, err := c.compile(sumOf(g, module, agg))
			if err != nil {
				return nil, err
			}
			parts[i] = p
		}
		return c.combine(parts, func(l, r dtree.Node) dtree.Node {
			return &dtree.PlusNode{Module: module, Agg: agg, L: l, R: r}
		})
	}
	if !c.opts.DisableFactoring {
		if node, ok, err := c.tryFactorSum(terms, module, agg); err != nil {
			return nil, err
		} else if ok {
			return node, nil
		}
	}
	return c.shannon(whole)
}

// sumOf builds the semiring (module=false) or agg-monoid sum of a group of
// terms, whose slice it takes over as the node's children. A group of the
// terms of a simplified sum is itself in simplified form.
func sumOf(terms []expr.Expr, module bool, agg algebra.Agg) expr.Expr {
	if module {
		return expr.AdoptMSum(agg, terms)
	}
	return expr.AdoptSum(terms)
}

// combine folds independent parts into a balanced binary tree of the
// nodes join builds (⊕ or ⊙), pairing neighbours level by level. Each
// level is written over the front of parts: pair i/2 is written after
// parts i and i+1 are read.
func (c *Compiler) combine(parts []dtree.Node, join func(l, r dtree.Node) dtree.Node) (dtree.Node, error) {
	for len(parts) > 1 {
		k := 0
		for i := 0; i < len(parts); i, k = i+2, k+1 {
			if i+1 == len(parts) {
				parts[k] = parts[i]
				continue
			}
			n, err := c.newNode(join(parts[i], parts[i+1]))
			if err != nil {
				return nil, err
			}
			parts[k] = n
		}
		parts = parts[:k]
	}
	return parts[0], nil
}

// tryFactorSum implements read-once factoring: if some variable x occurs
// as a multiplicative factor in *every* term and vanishes from the
// residuals, the sum equals x · (Σ residuals) by distributivity — or
// x ⊗ (Σ residuals) for semimodule sums, by the semimodule laws
// (paper Example 14).
func (c *Compiler) tryFactorSum(terms []expr.Expr, module bool, agg algebra.Agg) (dtree.Node, bool, error) {
	// Candidate variables: factors of the first term.
	for _, xv := range factorVariables(terms[0], module) {
		x := xv.ID()
		residuals := make([]expr.Expr, len(terms))
		ok := true
		for i, t := range terms {
			r, removed := removeFactor(t, x, module)
			if !removed {
				ok = false
				break
			}
			residuals[i] = r
		}
		if !ok {
			continue
		}
		// x must vanish entirely, or the two sides would share it.
		shared := false
		for _, r := range residuals {
			if expr.HasVarID(r, x) {
				shared = true
				break
			}
		}
		if shared {
			continue
		}
		c.st.Factorings++
		restNode, err := c.compile(expr.Simplify(sumOf(residuals, module, agg), c.s))
		if err != nil {
			return nil, false, err
		}
		xNode, err := c.compile(xv)
		if err != nil {
			return nil, false, err
		}
		var out dtree.Node
		if module {
			out, err = c.newNode(&dtree.TensorNode{Agg: agg, Scalar: xNode, Mod: restNode})
		} else {
			out, err = c.newNode(&dtree.TimesNode{L: xNode, R: restNode})
		}
		if err != nil {
			return nil, false, err
		}
		return out, true, nil
	}
	return nil, false, nil
}

// factorVariables lists the variables available for factoring out of a
// term: the top-level Var/Mul factors of a semiring term, or of the scalar
// of a semimodule tensor term. Candidates are ordered by name, matching
// the deterministic choice of the original string-keyed implementation;
// the names are the ones the Var nodes carry, so the interner is not
// consulted.
func factorVariables(t expr.Expr, module bool) []expr.Var {
	if module {
		tensor, ok := t.(expr.Tensor)
		if !ok {
			return nil
		}
		return factorVariables(tensor.Scalar, false)
	}
	switch n := t.(type) {
	case expr.Var:
		return []expr.Var{n}
	case expr.Mul:
		var out []expr.Var
		for _, f := range n.Factors {
			v, ok := f.(expr.Var)
			if !ok {
				continue
			}
			at := 0 // v's place in name order
			for at < len(out) && out[at].Name < v.Name {
				at++
			}
			if at < len(out) && out[at].Name == v.Name {
				continue
			}
			out = append(out, v)
			copy(out[at+1:], out[at:])
			out[at] = v
		}
		return out
	default:
		return nil
	}
}

// removeFactor divides term t by variable x, removing exactly one
// occurrence of x as a top-level factor. It reports whether the division
// succeeded.
func removeFactor(t expr.Expr, x expr.VarID, module bool) (expr.Expr, bool) {
	if module {
		tensor, ok := t.(expr.Tensor)
		if !ok {
			return nil, false
		}
		sc, ok := removeFactor(tensor.Scalar, x, false)
		if !ok {
			return nil, false
		}
		return expr.NewTensor(tensor.Agg, sc, tensor.Mod), true
	}
	switch n := t.(type) {
	case expr.Var:
		if n.ID() == x {
			return expr.CInt(1), true
		}
		return nil, false
	case expr.Mul:
		for i, f := range n.Factors {
			if v, ok := f.(expr.Var); ok && v.ID() == x {
				rest := make([]expr.Expr, 0, len(n.Factors)-1)
				rest = append(rest, n.Factors[:i]...)
				rest = append(rest, n.Factors[i+1:]...)
				if len(rest) == 0 {
					return expr.CInt(1), true
				}
				return expr.Product(rest...), true
			}
		}
		return nil, false
	default:
		return nil, false
	}
}

// compileProduct applies rule 3: split the factors of a product into
// independent groups.
func (c *Compiler) compileProduct(m expr.Mul, whole expr.Expr) (dtree.Node, error) {
	if !c.opts.DisablePruning {
		if pruned, n := pruneProduct(c.s, c.reg, m.Factors); n > 0 {
			c.st.PrunedGuards += n
			return c.compile(pruned)
		}
	}
	groups := c.sc.components(m.Factors)
	if len(groups) > 1 {
		c.st.ProductSplits += len(groups) - 1
		parts := make([]dtree.Node, len(groups))
		for i, g := range groups {
			// A group of the factors of a simplified product is simplified.
			p, err := c.compile(expr.AdoptProduct(g))
			if err != nil {
				return nil, err
			}
			parts[i] = p
		}
		return c.combine(parts, func(l, r dtree.Node) dtree.Node { return &dtree.TimesNode{L: l, R: r} })
	}
	return c.shannon(whole)
}

// compileTensor applies rule 4: Φ ⊗ α with independent sides.
func (c *Compiler) compileTensor(t expr.Tensor, whole expr.Expr) (dtree.Node, error) {
	if c.sc.disjoint(t.Scalar, t.Mod) {
		c.st.TensorSplits++
		sc, err := c.compile(t.Scalar)
		if err != nil {
			return nil, err
		}
		mod, err := c.compile(t.Mod)
		if err != nil {
			return nil, err
		}
		return c.newNode(&dtree.TensorNode{Agg: t.Agg, Scalar: sc, Mod: mod})
	}
	return c.shannon(whole)
}

// compileCmp applies the pruning rules and then rule 5.
func (c *Compiler) compileCmp(cm expr.Cmp) (dtree.Node, error) {
	if !c.opts.DisablePruning {
		pruned, dropped, changed := pruneCmp(c.s, c.reg, cm)
		c.st.PrunedTerms += dropped
		if changed {
			if !expr.HasVars(pruned) {
				v, err := expr.Eval(pruned, nil, c.s)
				if err != nil {
					return nil, err
				}
				return c.newNode(&dtree.ConstLeaf{V: v})
			}
			var ok bool
			if cm, ok = pruned.(expr.Cmp); !ok {
				return c.compile(pruned)
			}
		}
	}
	if c.sc.disjoint(cm.L, cm.R) {
		c.st.CmpSplits++
		l, err := c.compile(cm.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compile(cm.R)
		if err != nil {
			return nil, err
		}
		var cap *prob.Cap
		if !c.opts.DisablePruning {
			cap = capFor(c.s, c.reg, cm)
		}
		return c.newNode(&dtree.CmpNode{Th: cm.Th, L: l, R: r, Cap: cap})
	}
	return c.shannon(cm)
}

// shannon applies rule 6: mutex expansion ⊔x of the chosen variable.
func (c *Compiler) shannon(e expr.Expr) (dtree.Node, error) {
	// Poll unconditionally: one expansion level costs O(|e|) in
	// restriction work, which dwarfs the check, and a
	// descent over a wide aggregate can run thousands of levels before
	// creating its first (post-order) node.
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			return nil, err
		}
	}
	x, name := chooseVariable(e, c.opts.Order, &c.sc.vs)
	d, err := c.reg.DistByID(x)
	if err != nil {
		return nil, err
	}
	c.st.Shannon++
	branches := make([]dtree.Branch, 0, d.Size())
	for _, pair := range d.Pairs() {
		child, err := c.compile(c.sc.cof.Restrict(e, x, pair.V, c.s))
		if err != nil {
			return nil, err
		}
		branches = append(branches, dtree.Branch{Val: pair.V, P: pair.P, Child: child})
	}
	return c.newNode(&dtree.ExclusiveNode{Var: name, Branches: branches})
}

// chooseVariable picks the Shannon-expansion variable of e under the
// given heuristic and returns it with its name, counting occurrences in
// vs (empty before and after). It is deterministic — ties break on the
// lexicographically smallest name, exactly as the original sorted-name
// implementation did — and asks the interner for a name once per tied
// candidate: the incumbent's name is kept while it stands.
func chooseVariable(e expr.Expr, order VarOrder, vs *expr.VarSet) (expr.VarID, string) {
	expr.CollectVarsInto(e, vs)
	ids := vs.Touched()
	best, bestName := ids[0], ""
	for _, x := range ids[1:] {
		// behind > 0: x loses to the incumbent on occurrences; 0: a tie,
		// which names break.
		var behind int32
		switch order {
		case Lexicographic:
		case LeastOccurrences:
			behind = vs.Count(x) - vs.Count(best)
		default: // MostOccurrences
			behind = vs.Count(best) - vs.Count(x)
		}
		if behind > 0 {
			continue
		}
		name := ""
		if behind == 0 {
			if bestName == "" {
				bestName = expr.VarName(best)
			}
			if name = expr.VarName(x); name >= bestName {
				continue
			}
		}
		best, bestName = x, name
	}
	if bestName == "" {
		bestName = expr.VarName(best)
	}
	vs.Reset()
	return best, bestName
}
