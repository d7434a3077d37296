package compile

import (
	"math/bits"
	"sync"

	"pvcagg/internal/expr"
)

// scratch is the transient working memory of one compilation: the
// cofactor stack of expr.Restrict, the occurrence sets of the variable
// choice and the independence tests, and the integer tables of the
// independence partition. Everything in it is dead when the call that
// uses it returns; only the capacity is kept.
//
// One owner, one mechanism: whoever owns a compilation checks a scratch
// out of scratchPool once and returns it when the compilation ends — the
// Compiler for a bare exact compilation (compileUncached at the root,
// compileSimplified on the way out), ApproximateCtx for an anytime run,
// which gives its scratch to the run's one compiler for every leaf
// closure attempt and the frontier's own expansions.
// Nothing on the hot path goes to a pool, and a scratch is never used by
// two goroutines: a Compiler and an anytime run are single-goroutine by
// contract.
type scratch struct {
	cof    expr.Scratch // frames of Restrict
	vs     expr.VarSet  // chooseVariable's counts; disjoint's left side; the walk partition's owner table
	termVs expr.VarSet  // the walk partition's variables of one term
	ints   []int32      // components: union-find parents, root → group, group sizes
	// sigExact records that no two variables of the compilation's root
	// share a signature bit (expr.SigIsExact). Every expression the
	// compilation then meets is built from the root's variables, so
	// expr.Sig of it is its variable set, and components and disjoint read
	// signatures instead of walking.
	sigExact bool
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch checks out a scratch for a compilation rooted at e.
func getScratch(root expr.Expr) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.sigExact = expr.SigIsExact(root)
	return sc
}

// putScratch returns sc to the pool, dropping the expressions its stack
// still points to.
func putScratch(sc *scratch) {
	sc.cof.Release()
	scratchPool.Put(sc)
}

// components partitions terms into connected components of the
// clause-dependency graph: two terms are connected when they share a
// variable; a constant term is a component of its own. Groups, and the
// terms inside a group, come out in the order of their first term. It
// returns nil when the terms form one component. Otherwise it allocates
// its result — the groups and one backing array they are carved from, each
// group capped at its own length so that a node may adopt it — and nothing
// else.
//
// Signature contract: with sc.sigExact the partition is computed over
// signature bits alone, which are then the variables themselves. Without
// it signatures only filter — a term whose bits no other term has is a
// component without being walked — and the variables of the rest are
// collected by walking them. Both give the same partition in the same
// order.
func (sc *scratch) components(terms []expr.Expr) [][]expr.Expr {
	n := len(terms)
	if n == 1 {
		return nil
	}
	if cap(sc.ints) < 3*n {
		sc.ints = make([]int32, 3*n)
	}
	parent, group, size := sc.ints[:n], sc.ints[n:2*n], sc.ints[2*n:3*n]
	for i := range parent {
		parent[i] = int32(i)
	}
	if sc.sigExact {
		var owner [64]int32 // signature bit → (first term that has it)+1
		for i, t := range terms {
			for s := expr.Sig(t); s != 0; s &= s - 1 {
				b := bits.TrailingZeros64(s)
				if j := owner[b]; j == 0 {
					owner[b] = int32(i + 1)
				} else {
					union(parent, int32(i), j-1)
				}
			}
		}
	} else {
		var once, twice uint64 // bits some term has; bits two terms have
		for _, t := range terms {
			s := expr.Sig(t)
			twice |= once & s
			once |= s
		}
		owner := &sc.vs // variable → (first term that has it)+1
		for i, t := range terms {
			if expr.Sig(t)&twice == 0 {
				continue
			}
			sc.termVs.Reset()
			expr.CollectVarsInto(t, &sc.termVs)
			for _, x := range sc.termVs.Touched() {
				if j, stored := owner.GetOrSet(x, int32(i+1)); !stored {
					union(parent, int32(i), j-1)
				}
			}
		}
		owner.Reset()
		sc.termVs.Reset()
	}
	clear(sc.ints[n : 3*n])
	distinct := int32(0)
	for i := range terms {
		r := find(parent, int32(i))
		if group[r] == 0 {
			distinct++
			group[r] = distinct
		}
		size[group[r]-1]++
	}
	if distinct == 1 {
		return nil
	}
	backing := make([]expr.Expr, n)
	out := make([][]expr.Expr, distinct)
	off := 0
	for g := range out {
		end := off + int(size[g])
		out[g] = backing[off:off:end]
		off = end
	}
	for i, t := range terms {
		g := group[find(parent, int32(i))] - 1
		out[g] = append(out[g], t)
	}
	return out
}

func find(parent []int32, i int32) int32 {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

func union(parent []int32, a, b int32) { parent[find(parent, a)] = find(parent, b) }

// disjoint reports whether two expressions share no variable. Disjoint
// signatures prove it on any input; with sc.sigExact overlapping
// signatures disprove it, and otherwise the variables decide.
func (sc *scratch) disjoint(a, b expr.Expr) bool {
	if expr.Sig(a)&expr.Sig(b) == 0 {
		return true
	}
	if sc.sigExact {
		return false
	}
	expr.CollectVarsInto(a, &sc.vs)
	shared := expr.ContainsAny(b, &sc.vs)
	sc.vs.Reset()
	return !shared
}
