package compile

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pvcagg/internal/algebra"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/vars"
)

// This file implements the parallel compilation path: the same six
// decomposition rules as Compiler, with independent sub-problems —
// summand groups, factor groups, tensor and comparison sides, and the
// branches of a Shannon expansion ⊔x — fanned out to a bounded worker
// pool. The memo table is shared across all goroutines of one Compile
// call and striped over mutex-guarded shards, so the compiled d-tree
// remains a DAG: a sub-expression reached from two branches compiles
// once (or, under a benign race, twice, with the first stored node
// winning and the duplicate discarded).
//
// Rule application is identical to the sequential path and every
// heuristic (variable choice, component ordering, ⊕-tree folding) is
// deterministic, so the parallel compiler produces a d-tree that is
// structurally identical to the sequential one up to sharing — and
// therefore bit-identical probability distributions.

// memoShards is the stripe count of the shared memo table. 64 shards
// keep contention negligible at any realistic GOMAXPROCS while the
// per-shard maps stay dense.
const memoShards = 64

type memoShard struct {
	mu sync.RWMutex
	m  map[uint64][]memoEntry
}

// shardedMemo is a mutex-striped map from structural sub-expression
// hashes (collisions resolved by structural equality) to compiled d-tree
// nodes.
type shardedMemo struct {
	shards [memoShards]memoShard
}

func newShardedMemo() *shardedMemo {
	sm := &shardedMemo{}
	for i := range sm.shards {
		sm.shards[i].m = map[uint64][]memoEntry{}
	}
	return sm
}

func (sm *shardedMemo) get(h uint64, e expr.Expr) (dtree.Node, bool) {
	sh := &sm.shards[h%memoShards]
	sh.mu.RLock()
	n, ok := findEntry(sh.m[h], e)
	sh.mu.RUnlock()
	return n, ok
}

// put stores n under (h, e) unless another goroutine got there first, and
// returns the winning node so callers converge on one shared sub-tree.
func (sm *shardedMemo) put(h uint64, e expr.Expr, n dtree.Node) dtree.Node {
	sh := &sm.shards[h%memoShards]
	sh.mu.Lock()
	if prev, ok := findEntry(sh.m[h], e); ok {
		sh.mu.Unlock()
		return prev
	}
	sh.m[h] = append(sh.m[h], memoEntry{e, n})
	sh.mu.Unlock()
	return n
}

// ParallelCompiler compiles expressions over a fixed semiring and
// variable registry like Compiler, but fans independent sub-problems out
// to a bounded worker pool. Unlike Compiler it is safe for concurrent
// use: every Compile call owns its run state. The registry must not be
// mutated while compilations are in flight.
//
// Options.MaxNodes bounds the nodes *created*, which under the benign
// memo race can slightly exceed the final DAG size (a duplicated
// sub-compilation's nodes count even though the duplicate is
// discarded). It is a safety valve against runaway compilations, not an
// exact tree-size assertion: give it headroom rather than the precise
// sequential node count, or a budget at the exact boundary may abort
// nondeterministically.
type ParallelCompiler struct {
	s    algebra.Semiring
	reg  *vars.Registry
	opts Options
	par  int
}

// NewParallel returns a ParallelCompiler running at most parallelism
// goroutines per Compile call; parallelism <= 0 selects
// runtime.GOMAXPROCS(0). Parallelism 1 behaves exactly like the
// sequential Compiler (no goroutines are spawned).
func NewParallel(s algebra.Semiring, reg *vars.Registry, opts Options, parallelism int) *ParallelCompiler {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &ParallelCompiler{s: s, reg: reg, opts: opts, par: parallelism}
}

// Parallelism reports the configured worker bound.
func (pc *ParallelCompiler) Parallelism() int { return pc.par }

// Compile compiles e into a d-tree; the result's distribution equals the
// sequential Compiler's (Proposition 4 — the decomposition rules applied
// are the same, only their schedule differs).
func (pc *ParallelCompiler) Compile(e expr.Expr) (Result, error) {
	return pc.CompileCtx(context.Background(), e)
}

// CompileCtx is Compile under a context: every worker polls ctx at
// expansion steps, so cancellation aborts all branches of the fan-out
// promptly with ctx.Err().
func (pc *ParallelCompiler) CompileCtx(ctx context.Context, e expr.Expr) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := expr.Validate(e); err != nil {
		return Result{}, err
	}
	if err := pc.reg.CheckDeclared(e); err != nil {
		return Result{}, err
	}
	r := &prun{
		s:    pc.s,
		reg:  pc.reg,
		opts: pc.opts,
		ctx:  ctx,
		sem:  make(chan struct{}, pc.par-1),
		memo: newShardedMemo(),
	}
	root, err := r.compile(expr.Simplify(e, pc.s))
	if err != nil {
		return Result{}, err
	}
	return Result{Root: root, Stats: r.snapshot()}, nil
}

// ParallelCompile is the one-shot convenience wrapper around
// NewParallel(...).Compile(e).
func ParallelCompile(s algebra.Semiring, reg *vars.Registry, opts Options, parallelism int, e expr.Expr) (Result, error) {
	return NewParallel(s, reg, opts, parallelism).Compile(e)
}

// errStopped is returned by sub-compilations that bailed out because a
// sibling already failed; the sibling's real error supersedes it on the
// way up.
var errStopped = fmt.Errorf("compile: aborted by concurrent failure")

// prun is the state of one parallel Compile call. Statistics are atomic
// shadows of Stats; the semaphore holds one token per spare worker (the
// calling goroutine itself is the par-th worker).
type prun struct {
	s    algebra.Semiring
	reg  *vars.Registry
	opts Options
	ctx  context.Context
	sem  chan struct{}
	memo *shardedMemo

	aborted atomic.Bool

	// steps counts compile() entries across all branch goroutines; like
	// the sequential compiler's counter it advances on the way down a
	// Shannon descent, where nodes (created post-order) do not.
	steps atomic.Int64

	nodes         atomic.Int64
	sumSplits     atomic.Int64
	productSplits atomic.Int64
	tensorSplits  atomic.Int64
	cmpSplits     atomic.Int64
	factorings    atomic.Int64
	shannonN      atomic.Int64
	prunedTerms   atomic.Int64
	cacheHits     atomic.Int64
	sharedHits    atomic.Int64
}

func (r *prun) snapshot() Stats {
	return Stats{
		SumSplits:     int(r.sumSplits.Load()),
		ProductSplits: int(r.productSplits.Load()),
		TensorSplits:  int(r.tensorSplits.Load()),
		CmpSplits:     int(r.cmpSplits.Load()),
		Factorings:    int(r.factorings.Load()),
		Shannon:       int(r.shannonN.Load()),
		PrunedTerms:   int(r.prunedTerms.Load()),
		CacheHits:     int(r.cacheHits.Load()),
		SharedHits:    int(r.sharedHits.Load()),
		Nodes:         int(r.nodes.Load()),
	}
}

// fail marks the run aborted so concurrent branches stop early, and
// passes err through.
func (r *prun) fail(err error) error {
	r.aborted.Store(true)
	return err
}

func (r *prun) newNode(n dtree.Node) (dtree.Node, error) {
	c := r.nodes.Add(1)
	if r.ctx != nil && c&ctxCheckMask == 0 {
		if err := r.ctx.Err(); err != nil {
			return nil, r.fail(err)
		}
	}
	if r.opts.MaxNodes > 0 && c > int64(r.opts.MaxNodes) {
		return nil, r.fail(fmt.Errorf("compile: d-tree exceeds %d nodes: %w", r.opts.MaxNodes, ErrNodeBudget))
	}
	return n, nil
}

// compileAll compiles the sub-problems es, running as many as the worker
// pool has spare tokens for on fresh goroutines and the rest — always
// including the last — on the calling goroutine. Token acquisition never
// blocks, so recursion can never deadlock the pool: a compilation with
// no spare workers simply proceeds sequentially.
func (r *prun) compileAll(es []expr.Expr) ([]dtree.Node, error) {
	out := make([]dtree.Node, len(es))
	errs := make([]error, len(es))
	var wg sync.WaitGroup
	for i := 0; i < len(es)-1; i++ {
		select {
		case r.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-r.sem }()
				out[i], errs[i] = r.compile(es[i])
			}(i)
		default:
			out[i], errs[i] = r.compile(es[i])
		}
	}
	out[len(es)-1], errs[len(es)-1] = r.compile(es[len(es)-1])
	wg.Wait()
	// Prefer a real error over the errStopped sentinel of branches that
	// merely noticed the abort.
	var stopped error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if err != errStopped {
			return nil, err
		}
		stopped = err
	}
	if stopped != nil {
		return nil, stopped
	}
	return out, nil
}

// compile mirrors Compiler.compile; e must be in simplified form.
func (r *prun) compile(e expr.Expr) (dtree.Node, error) {
	if r.aborted.Load() {
		return nil, errStopped
	}
	if c := r.steps.Add(1); r.ctx != nil && c&ctxCheckMask == 0 {
		if err := r.ctx.Err(); err != nil {
			return nil, r.fail(err)
		}
	}
	// Rule 0: expressions without variables are constant leaves.
	if !expr.HasVars(e) {
		v, err := expr.Eval(e, nil, r.s)
		if err != nil {
			return nil, r.fail(err)
		}
		return r.newNode(&dtree.ConstLeaf{V: v, Module: e.Kind() == expr.KindModule})
	}
	if v, ok := e.(expr.Var); ok {
		return r.newNode(&dtree.VarLeaf{Name: v.Name, ID: v.ID()})
	}
	var h uint64
	memoised := !r.opts.DisableMemo
	if memoised {
		h = expr.Hash(e)
		if n, ok := r.memo.get(h, e); ok {
			r.cacheHits.Add(1)
			return n, nil
		}
		if sc := r.opts.Shared; sc != nil {
			if n, ok := sc.lookup(h, e); ok {
				r.cacheHits.Add(1)
				r.sharedHits.Add(1)
				return r.memo.put(h, e, n), nil
			}
		}
	}
	n, err := r.compileUncached(e)
	if err != nil {
		return nil, err
	}
	if memoised {
		if sc := r.opts.Shared; sc != nil {
			n = sc.insert(h, e, n)
		}
		n = r.memo.put(h, e, n)
	}
	return n, nil
}

func (r *prun) compileUncached(e expr.Expr) (dtree.Node, error) {
	switch n := e.(type) {
	case expr.Add:
		return r.compileSum(n.Terms, false, 0, e)
	case expr.AggSum:
		return r.compileSum(n.Terms, true, n.Agg, e)
	case expr.Mul:
		return r.compileProduct(n, e)
	case expr.Tensor:
		return r.compileTensor(n, e)
	case expr.Cmp:
		return r.compileCmp(n)
	default:
		return nil, r.fail(fmt.Errorf("compile: unexpected node %T", e))
	}
}

// compileSum mirrors Compiler.compileSum: rule 1 with the independent
// groups compiled concurrently, then factoring, then Shannon.
func (r *prun) compileSum(terms []expr.Expr, module bool, agg algebra.Agg, whole expr.Expr) (dtree.Node, error) {
	groups := components(terms)
	if len(groups) > 1 {
		r.sumSplits.Add(int64(len(groups) - 1))
		ges := make([]expr.Expr, len(groups))
		for i, g := range groups {
			ges[i] = sumOf(g, module, agg)
		}
		parts, err := r.compileAll(ges)
		if err != nil {
			return nil, err
		}
		return r.combinePlus(parts, module, agg)
	}
	if !r.opts.DisableFactoring {
		if node, ok, err := r.tryFactorSum(terms, module, agg); err != nil {
			return nil, err
		} else if ok {
			return node, nil
		}
	}
	return r.shannon(whole)
}

// combinePlus folds independent parts into a balanced binary ⊕ tree in
// the same deterministic order as the sequential compiler.
func (r *prun) combinePlus(parts []dtree.Node, module bool, agg algebra.Agg) (dtree.Node, error) {
	for len(parts) > 1 {
		next := make([]dtree.Node, 0, (len(parts)+1)/2)
		for i := 0; i < len(parts); i += 2 {
			if i+1 == len(parts) {
				next = append(next, parts[i])
				continue
			}
			n, err := r.newNode(&dtree.PlusNode{Module: module, Agg: agg, L: parts[i], R: parts[i+1]})
			if err != nil {
				return nil, err
			}
			next = append(next, n)
		}
		parts = next
	}
	return parts[0], nil
}

// tryFactorSum mirrors Compiler.tryFactorSum (read-once factoring); the
// residual sum and the factored variable compile concurrently.
func (r *prun) tryFactorSum(terms []expr.Expr, module bool, agg algebra.Agg) (dtree.Node, bool, error) {
	for _, x := range factorVariables(terms[0], module) {
		residuals := make([]expr.Expr, len(terms))
		ok := true
		for i, t := range terms {
			res, removed := removeFactor(t, x, module)
			if !removed {
				ok = false
				break
			}
			residuals[i] = res
		}
		if !ok {
			continue
		}
		shared := false
		for _, res := range residuals {
			if expr.HasVarID(res, x) {
				shared = true
				break
			}
		}
		if shared {
			continue
		}
		r.factorings.Add(1)
		rest := expr.Simplify(sumOf(residuals, module, agg), r.s)
		sides, err := r.compileAll([]expr.Expr{expr.VFromID(x), rest})
		if err != nil {
			return nil, false, err
		}
		var out dtree.Node
		if module {
			out, err = r.newNode(&dtree.TensorNode{Agg: agg, Scalar: sides[0], Mod: sides[1]})
		} else {
			out, err = r.newNode(&dtree.TimesNode{L: sides[0], R: sides[1]})
		}
		if err != nil {
			return nil, false, err
		}
		return out, true, nil
	}
	return nil, false, nil
}

// compileProduct mirrors Compiler.compileProduct with concurrent groups.
func (r *prun) compileProduct(m expr.Mul, whole expr.Expr) (dtree.Node, error) {
	groups := components(m.Factors)
	if len(groups) > 1 {
		r.productSplits.Add(int64(len(groups) - 1))
		ges := make([]expr.Expr, len(groups))
		for i, g := range groups {
			ges[i] = expr.Product(g...)
		}
		parts, err := r.compileAll(ges)
		if err != nil {
			return nil, err
		}
		for len(parts) > 1 {
			next := make([]dtree.Node, 0, (len(parts)+1)/2)
			for i := 0; i < len(parts); i += 2 {
				if i+1 == len(parts) {
					next = append(next, parts[i])
					continue
				}
				n, err := r.newNode(&dtree.TimesNode{L: parts[i], R: parts[i+1]})
				if err != nil {
					return nil, err
				}
				next = append(next, n)
			}
			parts = next
		}
		return parts[0], nil
	}
	return r.shannon(whole)
}

// compileTensor mirrors Compiler.compileTensor; independent sides
// compile concurrently.
func (r *prun) compileTensor(t expr.Tensor, whole expr.Expr) (dtree.Node, error) {
	if disjoint(t.Scalar, t.Mod) {
		r.tensorSplits.Add(1)
		sides, err := r.compileAll([]expr.Expr{t.Scalar, t.Mod})
		if err != nil {
			return nil, err
		}
		return r.newNode(&dtree.TensorNode{Agg: t.Agg, Scalar: sides[0], Mod: sides[1]})
	}
	return r.shannon(whole)
}

// compileCmp mirrors Compiler.compileCmp: pruning, then rule 4 with
// concurrent sides.
func (r *prun) compileCmp(cm expr.Cmp) (dtree.Node, error) {
	if !r.opts.DisablePruning {
		pruned, dropped := pruneCmp(r.s, r.reg, cm)
		r.prunedTerms.Add(int64(dropped))
		simplified := expr.Simplify(pruned, r.s)
		if !expr.HasVars(simplified) {
			v, err := expr.Eval(simplified, nil, r.s)
			if err != nil {
				return nil, r.fail(err)
			}
			return r.newNode(&dtree.ConstLeaf{V: v})
		}
		var ok bool
		if cm, ok = simplified.(expr.Cmp); !ok {
			return r.compile(simplified)
		}
	}
	if disjoint(cm.L, cm.R) {
		r.cmpSplits.Add(1)
		sides, err := r.compileAll([]expr.Expr{cm.L, cm.R})
		if err != nil {
			return nil, err
		}
		var cp *prob.Cap
		if !r.opts.DisablePruning {
			cp = capFor(r.s, r.reg, cm)
		}
		return r.newNode(&dtree.CmpNode{Th: cm.Th, L: sides[0], R: sides[1], Cap: cp})
	}
	return r.shannon(cm)
}

// shannon applies rule 5/6, compiling the branches of ⊔x concurrently —
// the dominant fan-out point: each branch is a full sub-compilation and
// branches only share work through the memo table.
func (r *prun) shannon(e expr.Expr) (dtree.Node, error) {
	// Unconditional poll, as in the sequential compiler: an expansion
	// level is O(|e|) work and a descent creates nodes only post-order.
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			return nil, r.fail(err)
		}
	}
	x := chooseVariable(e, r.opts.Order)
	d, err := r.reg.DistByID(x)
	if err != nil {
		return nil, r.fail(err)
	}
	r.shannonN.Add(1)
	pairs := d.Pairs()
	subs := make([]expr.Expr, len(pairs))
	for i, pair := range pairs {
		subs[i] = expr.Restrict(e, x, pair.V, r.s)
	}
	children, err := r.compileAll(subs)
	if err != nil {
		return nil, err
	}
	branches := make([]dtree.Branch, len(pairs))
	for i, pair := range pairs {
		branches[i] = dtree.Branch{Val: pair.V, P: pair.P, Child: children[i]}
	}
	return r.newNode(&dtree.ExclusiveNode{Var: expr.VarName(x), Branches: branches})
}
