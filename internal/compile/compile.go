// Package compile implements Algorithm 1 of the paper: compilation of
// arbitrary semiring and semimodule expressions into decomposition trees.
// The six decomposition rules are applied in order (the numbers are the
// ones Stats and the comments below use):
//
//  1. constant expressions become leaves;
//  2. sums split into independent summands (connected components of the
//     clause-dependency graph), the k parts of one n-ary ⊕ node (counted
//     as the k−1 binary nodes it stands for), with read-once factoring of
//     common variables inside a component;
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
//     choosing the variable with most occurrences.
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
//
// A Compiler carves its nodes from slabs it reuses after Reset (nodes.go),
// so a tree lives until its compiler's next Reset: a caller evaluates it
// first. Compilers are pooled (Get, Put), one pool for the engine's
// workers and the anytime runs.
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

// Options configure compilation. The zero value enables every technique
// described in the paper.
type Options struct {
	// DisablePruning turns off the conditional-expression pruning rules
	// and distribution capping: the reference compilation that pruning's
	// soundness tests compare against.
	DisablePruning bool
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
	// nodes are the slabs the compiler's d-tree nodes are carved from.
	nodes nodeSlabs
	// ev is the keeping evaluator of the anytime runs on c, made by the
	// first: its memo is keyed by c's nodes, and Reset empties it with
	// them.
	ev *dtree.Evaluator
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
// the memo and in the node slabs.
//
// Reset invalidates every tree compiled since the last Reset: the
// compilations that follow reuse its nodes, so such a tree must be
// evaluated before Reset and not read after it.
func (c *Compiler) Reset() {
	c.memo.reset()
	c.nodes.reset()
	if c.ev != nil {
		c.ev.Reset(dtree.Env{Semiring: c.s, Registry: c.reg})
	}
}

// Rebind points c at another semiring, registry and options and Resets
// it: a compiler that serves query after query keeps its memo's and its
// slabs' capacity, never an entry or a node. Rebinding to a nil registry
// drops c's last references to the query it served, for a compiler that
// waits in a pool.
func (c *Compiler) Rebind(s algebra.Semiring, reg *vars.Registry, opts Options) {
	c.s, c.reg, c.opts, c.ctx = s, reg, opts, nil
	c.Reset()
}

// SetMaxNodes replaces Options.MaxNodes for the compilations that follow.
func (c *Compiler) SetMaxNodes(n int) { c.opts.MaxNodes = n }

// ctxCheckMask throttles cancellation polls to one per 256 nodes created:
// node creation is the unit of expansion work, so a runaway Shannon
// expansion notices a cancelled context within a few thousand cheap steps
// (well under a millisecond) without an atomic load on every node.
const ctxCheckMask = 255

// CompileCtx compiles e into a d-tree. The result's distribution (computed
// by dtree.Evaluate) equals the distribution of e over the registry's
// probability space (Proposition 4). Compilation polls ctx at expansion
// steps and aborts with ctx.Err() once it is cancelled, turning runaway
// Shannon expansions into promptly-interruptible work.
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

// carve creates the node v in a slot of slab s.
func carve[T any, P interface {
	*T
	dtree.Node
}](c *Compiler, s *slab[T], v T) (dtree.Node, error) {
	p := P(s.one())
	*p = v
	return c.newNodes(p, 1)
}

// newNodes creates n, counting it as k nodes: a ⊕ of k+1 parts is the k
// binary nodes it stands for, so the node budget and the cancellation
// polls see them one by one, as if each were created.
func (c *Compiler) newNodes(n dtree.Node, k int) (dtree.Node, error) {
	for range k {
		c.st.Nodes++
		if c.ctx != nil && c.st.Nodes&ctxCheckMask == 0 {
			if err := c.ctx.Err(); err != nil {
				return nil, err
			}
		}
		if c.opts.MaxNodes > 0 && c.st.Nodes > c.opts.MaxNodes {
			return nil, fmt.Errorf("compile: d-tree exceeds %d nodes: %w", c.opts.MaxNodes, ErrNodeBudget)
		}
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
	// post-order, so the newNodes poll alone can leave a cancelled
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
		return carve(c, &c.nodes.consts, dtree.ConstLeaf{V: v, Module: e.Kind() == expr.KindModule})
	}
	if v, ok := e.(expr.Var); ok {
		return carve(c, &c.nodes.vars, dtree.VarLeaf{Name: v.Name, ID: v.ID()})
	}
	h := expr.Hash(e)
	if n, ok := c.memo.get(h, e); ok {
		c.st.CacheHits++
		dtree.MarkShared(n)
		return n, nil
	}
	n, err := c.compileUncached(e)
	if err != nil {
		return nil, err
	}
	c.memo.put(h, e, n)
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
	groups := c.sc.components(terms, func(g []expr.Expr) expr.Expr { return sumOf(g, module, agg) })
	if groups != nil {
		defer c.sc.popGroups(groups)
		c.st.SumSplits += len(groups) - 1
		parts, err := c.compileParts(groups)
		if err != nil {
			return nil, err
		}
		plus := c.nodes.pluses.one()
		*plus = dtree.PlusNode{Module: module, Agg: agg, Parts: parts}
		return c.newNodes(plus, len(parts)-1)
	}
	if node, ok, err := c.tryFactorSum(terms, module, agg); err != nil {
		return nil, err
	} else if ok {
		return node, nil
	}
	return c.shannon(whole)
}

// compileParts compiles each of groups into a slice of the parts slab.
func (c *Compiler) compileParts(groups []expr.Expr) ([]dtree.Node, error) {
	parts := c.nodes.parts.take(len(groups))
	for i, g := range groups {
		p, err := c.compile(g)
		if err != nil {
			return nil, err
		}
		parts[i] = p
	}
	return parts, nil
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

// combine folds independent factors into a balanced binary tree of ⊙
// nodes, pairing neighbours level by level — the pairing dtree.Halve
// describes. Each level is written over the front of parts: pair i/2 is
// written after parts i and i+1 are read.
func (c *Compiler) combine(parts []dtree.Node) (dtree.Node, error) {
	for len(parts) > 1 {
		k := 0
		for i := 0; i < len(parts); i, k = i+2, k+1 {
			if i+1 == len(parts) {
				parts[k] = parts[i]
				continue
			}
			n, err := carve(c, &c.nodes.times, dtree.TimesNode{L: parts[i], R: parts[i+1]})
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
// (paper Example 14). Each candidate is tested on every term before any
// residual is built, so a sum that does not factor allocates nothing.
func (c *Compiler) tryFactorSum(terms []expr.Expr, module bool, agg algebra.Agg) (dtree.Node, bool, error) {
	// Candidate variables: factors of the first term. The list lives in
	// the scratch; the loop returns before anything it calls reuses it.
	c.sc.factors = factorVariables(c.sc.factors, terms[0], module)
	for _, xv := range c.sc.factors {
		x := xv.ID()
		if !factorsAll(terms, x, module) {
			continue
		}
		residuals := make([]expr.Expr, len(terms))
		for i, t := range terms {
			residuals[i] = removeFactor(t, x, module)
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
			out, err = carve(c, &c.nodes.tensors, dtree.TensorNode{Agg: agg, Scalar: xNode, Mod: restNode})
		} else {
			out, err = carve(c, &c.nodes.times, dtree.TimesNode{L: xNode, R: restNode})
		}
		if err != nil {
			return nil, false, err
		}
		return out, true, nil
	}
	return nil, false, nil
}

// factorVariables lists, in buf's array, the variables available for
// factoring out of a term: the top-level Var/Mul factors of a semiring
// term, or of the scalar of a semimodule tensor term. Candidates are
// ordered by name, matching the deterministic choice of the original
// string-keyed implementation; the names are the ones the Var nodes
// carry, so the interner is not consulted.
func factorVariables(buf []expr.Var, t expr.Expr, module bool) []expr.Var {
	dst := buf[:0]
	if module {
		tensor, ok := t.(expr.Tensor)
		if !ok {
			return dst
		}
		t = tensor.Scalar
	}
	switch n := t.(type) {
	case expr.Var:
		return append(dst, n)
	case expr.Mul:
		for _, f := range n.Factors {
			v, ok := f.(expr.Var)
			if !ok {
				continue
			}
			at := len(dst) - 1 // v's place in name order
			for at >= 0 && dst[at].Name > v.Name {
				at--
			}
			if at >= 0 && dst[at].Name == v.Name {
				continue
			}
			dst = append(dst, v)
			copy(dst[at+2:], dst[at+1:])
			dst[at+1] = v
		}
	}
	return dst
}

// factorsAll reports whether x factors out of every term: it is a
// top-level factor of the term (of its scalar, for a semimodule term)
// and occurs in the term nowhere else — exactly when removeFactor
// succeeds and leaves a residual without x. It allocates nothing.
func factorsAll(terms []expr.Expr, x expr.VarID, module bool) bool {
	for _, t := range terms {
		if !isolatedFactor(t, x, module) {
			return false
		}
	}
	return true
}

func isolatedFactor(t expr.Expr, x expr.VarID, module bool) bool {
	if module {
		tensor, ok := t.(expr.Tensor)
		return ok && isolatedFactor(tensor.Scalar, x, false) && !expr.HasVarID(tensor.Mod, x)
	}
	switch n := t.(type) {
	case expr.Var:
		return n.ID() == x
	case expr.Mul:
		found := false
		for _, f := range n.Factors {
			if v, ok := f.(expr.Var); ok && !found && v.ID() == x {
				found = true // the occurrence removeFactor removes
			} else if expr.HasVarID(f, x) {
				return false
			}
		}
		return found
	default:
		return false
	}
}

// removeFactor divides term t by variable x, removing its first
// occurrence as a top-level factor; x must factor out of t
// (isolatedFactor).
func removeFactor(t expr.Expr, x expr.VarID, module bool) expr.Expr {
	if module {
		tensor := t.(expr.Tensor)
		return expr.NewTensor(tensor.Agg, removeFactor(tensor.Scalar, x, false), tensor.Mod)
	}
	m, ok := t.(expr.Mul)
	if !ok { // t is x itself
		return expr.CInt(1)
	}
	for i, f := range m.Factors {
		if v, ok := f.(expr.Var); ok && v.ID() == x {
			rest := make([]expr.Expr, 0, len(m.Factors)-1)
			rest = append(rest, m.Factors[:i]...)
			rest = append(rest, m.Factors[i+1:]...)
			if len(rest) == 0 {
				return expr.CInt(1)
			}
			return expr.Product(rest...)
		}
	}
	panic("compile: removeFactor of a variable that is no factor")
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
	// A group of the factors of a simplified product is simplified.
	groups := c.sc.components(m.Factors, expr.AdoptProduct)
	if groups != nil {
		defer c.sc.popGroups(groups)
		c.st.ProductSplits += len(groups) - 1
		parts, err := c.compileParts(groups)
		if err != nil {
			return nil, err
		}
		return c.combine(parts)
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
		return carve(c, &c.nodes.tensors, dtree.TensorNode{Agg: t.Agg, Scalar: sc, Mod: mod})
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
				return carve(c, &c.nodes.consts, dtree.ConstLeaf{V: v})
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
		return carve(c, &c.nodes.cmps, dtree.CmpNode{Th: cm.Th, L: l, R: r, Cap: cap})
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
	x, name := chooseVariable(e, &c.sc.vs)
	d, err := c.reg.DistByID(x)
	if err != nil {
		return nil, err
	}
	c.st.Shannon++
	branches := c.nodes.branches.take(d.Size())
	for i, pair := range d.Pairs() {
		child, err := c.compile(c.sc.cof.Restrict(e, x, pair.V, c.s))
		if err != nil {
			return nil, err
		}
		branches[i] = dtree.Branch{Val: pair.V, P: pair.P, Child: child}
	}
	return carve(c, &c.nodes.excls, dtree.ExclusiveNode{Var: name, Branches: branches})
}

// chooseVariable picks the Shannon-expansion variable of e, the one with
// most occurrences (the paper's choice, after [18]), and returns it with
// its name, counting occurrences in vs (empty before and after). It is
// deterministic — ties break on the lexicographically smallest name,
// exactly as the original sorted-name implementation did — and asks the
// interner for a name once per tied candidate: the incumbent's name is
// kept while it stands.
func chooseVariable(e expr.Expr, vs *expr.VarSet) (expr.VarID, string) {
	expr.CollectVarsInto(e, vs)
	ids := vs.Touched()
	best, bestName := ids[0], ""
	for _, x := range ids[1:] {
		// behind > 0: x loses to the incumbent on occurrences; 0: a tie,
		// which names break.
		behind := vs.Count(best) - vs.Count(x)
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
