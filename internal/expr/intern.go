package expr

import (
	"sync"

	"pvcagg/internal/algebra"
	"pvcagg/internal/value"
)

// This file implements the performance substrate of the expression
// language: a process-wide variable interner mapping names to dense int32
// IDs, cached 64-bit structural hashes with cheap structural equality
// (the memoisation key of the compilers — canonical string rendering
// survives only for diagnostics), a 64-bit variable signature cached
// beside the hash (Sig: which variable IDs mod 64 a sub-tree mentions, so
// that "x does not occur here" and "these two share no variable" are
// answered without a walk), and reusable variable-occurrence sets that
// replace the map[string]int allocations previously made at every
// decomposition step.

// VarID is the dense interned identity of a variable name. IDs start at 1;
// 0 means "not interned yet" and is resolved lazily, so Var values built
// as plain struct literals (tests, ad-hoc code) remain valid.
//
// The interner is process-wide and append-only: names are never freed,
// and ID-indexed tables (vars.Registry, VarSet) are sized by the largest
// ID they touch. Workloads that reuse variable names across registries
// (the normal shape: generators and loaders produce x0..xN-style names)
// stay compact; a long-lived process minting unique names per query
// grows the interner — and the tables of registries that declare those
// late names — with the total distinct-name count.
type VarID int32

var interner = struct {
	mu    sync.RWMutex
	ids   map[string]VarID
	names []string
}{ids: make(map[string]VarID, 256)}

// Intern returns the ID of name, assigning the next dense ID on first use.
// Interning is idempotent and safe for concurrent use.
func Intern(name string) VarID {
	interner.mu.RLock()
	id, ok := interner.ids[name]
	interner.mu.RUnlock()
	if ok {
		return id
	}
	interner.mu.Lock()
	defer interner.mu.Unlock()
	if id, ok := interner.ids[name]; ok {
		return id
	}
	id = VarID(len(interner.names) + 1)
	interner.ids[name] = id
	interner.names = append(interner.names, name)
	return id
}

// VarName returns the name interned as id.
func VarName(id VarID) string {
	interner.mu.RLock()
	defer interner.mu.RUnlock()
	return interner.names[id-1]
}

// NumVarIDs returns one past the largest assigned VarID, the size needed
// for dense ID-indexed tables.
func NumVarIDs() int {
	interner.mu.RLock()
	defer interner.mu.RUnlock()
	return len(interner.names) + 1
}

// ID returns the interned ID of the variable, interning its name on first
// use for Var values that were built as struct literals rather than V().
func (v Var) ID() VarID {
	if v.id != 0 {
		return v.id
	}
	return Intern(v.Name)
}

// VFromID returns the variable with the given interned ID.
func VFromID(id VarID) Var { return Var{Name: VarName(id), id: id} }

// VarSet is a reusable multiset of variable occurrences indexed by VarID.
// The zero value is ready to use; Reset clears it in time proportional to
// the number of distinct variables touched, so one VarSet amortises to
// zero allocations across arbitrarily many collections.
type VarSet struct {
	counts  []int32
	touched []VarID
	sig     uint64 // OR of varBit over touched
}

// Reset empties the set, keeping its capacity.
func (s *VarSet) Reset() {
	for _, id := range s.touched {
		s.counts[id] = 0
	}
	s.touched = s.touched[:0]
	s.sig = 0
}

func (s *VarSet) grow(id VarID) {
	n := len(s.counts)
	if n == 0 {
		n = 64
	}
	for n <= int(id) {
		n *= 2
	}
	counts := make([]int32, n)
	copy(counts, s.counts)
	s.counts = counts
}

func (s *VarSet) add(id VarID, n int32) {
	if int(id) >= len(s.counts) {
		s.grow(id)
	}
	if s.counts[id] == 0 {
		s.touched = append(s.touched, id)
		s.sig |= varBit(id)
	}
	s.counts[id] += n
}

// Count returns the number of occurrences recorded for id.
func (s *VarSet) Count(id VarID) int32 {
	if int(id) >= len(s.counts) {
		return 0
	}
	return s.counts[id]
}

// Has reports whether id has at least one occurrence.
func (s *VarSet) Has(id VarID) bool { return s.Count(id) > 0 }

// Len returns the number of distinct variables in the set.
func (s *VarSet) Len() int { return len(s.touched) }

// Touched returns the distinct variables in first-touch order. The slice
// is owned by the set and invalidated by Reset.
func (s *VarSet) Touched() []VarID { return s.touched }

// GetOrSet returns the value stored for id if non-zero; otherwise it
// stores val and reports stored = true. It lets a VarSet double as a
// reusable VarID→int32 scratch table (e.g. the owner map of the
// connected-components partition).
func (s *VarSet) GetOrSet(id VarID, val int32) (prev int32, stored bool) {
	if int(id) >= len(s.counts) {
		s.grow(id)
	}
	if s.counts[id] != 0 {
		return s.counts[id], false
	}
	s.counts[id] = val
	s.touched = append(s.touched, id)
	s.sig |= varBit(id)
	return 0, true
}

// CollectVarsInto adds every variable occurrence of e to s.
func CollectVarsInto(e Expr, s *VarSet) {
	switch n := e.(type) {
	case Var:
		s.add(n.ID(), 1)
	case Const, MConst:
	case Add:
		for _, t := range n.Terms {
			CollectVarsInto(t, s)
		}
	case Mul:
		for _, f := range n.Factors {
			CollectVarsInto(f, s)
		}
	case Tensor:
		CollectVarsInto(n.Scalar, s)
		CollectVarsInto(n.Mod, s)
	case AggSum:
		for _, t := range n.Terms {
			CollectVarsInto(t, s)
		}
	case Cmp:
		CollectVarsInto(n.L, s)
		CollectVarsInto(n.R, s)
	}
}

// AppendVars appends every variable occurrence of e to dst, in rendering
// order and with repeats, and returns the extended slice. Unlike Vars it
// builds no map and resolves no name.
func AppendVars(dst []Var, e Expr) []Var {
	switch n := e.(type) {
	case Var:
		dst = append(dst, n)
	case Add:
		for _, t := range n.Terms {
			dst = AppendVars(dst, t)
		}
	case Mul:
		for _, f := range n.Factors {
			dst = AppendVars(dst, f)
		}
	case Tensor:
		dst = AppendVars(AppendVars(dst, n.Scalar), n.Mod)
	case AggSum:
		for _, t := range n.Terms {
			dst = AppendVars(dst, t)
		}
	case Cmp:
		dst = AppendVars(AppendVars(dst, n.L), n.R)
	}
	return dst
}

// ContainsAny reports whether e mentions any variable of s, with early
// exit on the first hit.
func ContainsAny(e Expr, s *VarSet) bool {
	if cachedSig(e)&s.sig == 0 {
		return false
	}
	switch n := e.(type) {
	case Var:
		return s.Has(n.ID())
	case Const, MConst:
		return false
	case Add:
		for _, t := range n.Terms {
			if ContainsAny(t, s) {
				return true
			}
		}
		return false
	case Mul:
		for _, f := range n.Factors {
			if ContainsAny(f, s) {
				return true
			}
		}
		return false
	case Tensor:
		return ContainsAny(n.Scalar, s) || ContainsAny(n.Mod, s)
	case AggSum:
		for _, t := range n.Terms {
			if ContainsAny(t, s) {
				return true
			}
		}
		return false
	case Cmp:
		return ContainsAny(n.L, s) || ContainsAny(n.R, s)
	default:
		return false
	}
}

// FindVar returns the first variable occurrence of e, in rendering order,
// that satisfies pred. The walk allocates nothing.
func FindVar(e Expr, pred func(VarID) bool) (VarID, bool) {
	switch n := e.(type) {
	case Var:
		if id := n.ID(); pred(id) {
			return id, true
		}
	case Add:
		return findVarSeq(n.Terms, pred)
	case Mul:
		return findVarSeq(n.Factors, pred)
	case Tensor:
		if id, ok := FindVar(n.Scalar, pred); ok {
			return id, true
		}
		return FindVar(n.Mod, pred)
	case AggSum:
		return findVarSeq(n.Terms, pred)
	case Cmp:
		if id, ok := FindVar(n.L, pred); ok {
			return id, true
		}
		return FindVar(n.R, pred)
	}
	return 0, false
}

func findVarSeq(es []Expr, pred func(VarID) bool) (VarID, bool) {
	for _, e := range es {
		if id, ok := FindVar(e, pred); ok {
			return id, true
		}
	}
	return 0, false
}

// HasVarID reports whether e mentions the variable id.
func HasVarID(e Expr, id VarID) bool {
	if cachedSig(e)&varBit(id) == 0 {
		return false
	}
	switch n := e.(type) {
	case Var:
		return n.ID() == id
	case Const, MConst:
		return false
	case Add:
		for _, t := range n.Terms {
			if HasVarID(t, id) {
				return true
			}
		}
		return false
	case Mul:
		for _, f := range n.Factors {
			if HasVarID(f, id) {
				return true
			}
		}
		return false
	case Tensor:
		return HasVarID(n.Scalar, id) || HasVarID(n.Mod, id)
	case AggSum:
		for _, t := range n.Terms {
			if HasVarID(t, id) {
				return true
			}
		}
		return false
	case Cmp:
		return HasVarID(n.L, id) || HasVarID(n.R, id)
	default:
		return false
	}
}

// Variable signatures. Sig(e) has bit id&63 set for every variable id of
// e, and is cached at construction like the hash. It is a sound negative
// filter on any expression: a clear bit for x means e does not mention x,
// and Sig(a)&Sig(b) == 0 means a and b share no variable. When no two
// variables of an expression fall on one bit (SigIsExact) the signature
// of each of its sub-expressions, and of anything Restrict or the folds
// derive from it, *is* its variable set.

func varBit(id VarID) uint64 { return 1 << (uint32(id) & 63) }

// cached returns the summaries e carries — structural hash, variable-
// occurrence count, signature: computed on the spot for a leaf, read off
// the node for a constructor-built composite. ok is false for a composite
// built as a struct literal, which carries none.
func cached(e Expr) (h uint64, nv int32, sig uint64, ok bool) {
	switch n := e.(type) {
	case Var:
		return n.hash(), 1, varBit(n.ID()), true
	case Const:
		return n.hash(), 0, 0, true
	case MConst:
		return n.hash(), 0, 0, true
	case Add:
		return n.h, n.nv, n.sig, n.h != 0
	case Mul:
		return n.h, n.nv, n.sig, n.h != 0
	case Tensor:
		return n.h, n.nv, n.sig, n.h != 0
	case AggSum:
		return n.h, n.nv, n.sig, n.h != 0
	case Cmp:
		return n.h, n.nv, n.sig, n.h != 0
	}
	return 0, 0, 0, false
}

// Sig returns the variable signature of e.
func Sig(e Expr) uint64 {
	if _, _, sig, ok := cached(e); ok {
		return sig
	}
	switch n := e.(type) {
	case Add:
		return sigSeq(n.Terms)
	case Mul:
		return sigSeq(n.Factors)
	case Tensor:
		return Sig(n.Scalar) | Sig(n.Mod)
	case AggSum:
		return sigSeq(n.Terms)
	case Cmp:
		return Sig(n.L) | Sig(n.R)
	}
	return 0
}

func sigSeq(es []Expr) uint64 {
	var sig uint64
	for _, e := range es {
		sig |= Sig(e)
	}
	return sig
}

// cachedSig is Sig where it costs nothing and all ones elsewhere: the
// filter of the walks above, which must not turn a walk over struct
// literals into a walk per level.
func cachedSig(e Expr) uint64 {
	if _, _, sig, ok := cached(e); ok {
		return sig
	}
	return ^uint64(0)
}

// SigIsExact reports whether no two distinct variables of e share a
// signature bit, so that signatures of e's sub-expressions are variable
// sets. It walks e once, stopping at the first clash.
func SigIsExact(e Expr) bool {
	var owner [64]VarID
	_, clash := FindVar(e, func(id VarID) bool {
		o := &owner[uint32(id)&63]
		if *o == 0 {
			*o = id
		}
		return *o != id
	})
	return !clash
}

// Structural hashing. Every composite node caches its hash (with its
// variable-occurrence count and signature) at construction, so Hash is
// O(1) on constructor-built trees and O(direct children) on struct
// literals — never the O(subtree) canonical-string rendering it replaces.

const hashPrime uint64 = 0x100000001b3

// Per-kind hash salts (arbitrary odd constants).
const (
	hashSaltVar    uint64 = 0x9e3779b97f4a7c15
	hashSaltConst  uint64 = 0xc2b2ae3d27d4eb4f
	hashSaltMConst uint64 = 0x165667b19e3779f9
	hashSaltAdd    uint64 = 0x27d4eb2f165667c5
	hashSaltMul    uint64 = 0x85ebca77c2b2ae63
	hashSaltTensor uint64 = 0xff51afd7ed558ccd
	hashSaltAggSum uint64 = 0xc4ceb9fe1a85ec53
	hashSaltCmp    uint64 = 0x2545f4914f6cdd1d
)

// mix64 is the splitmix64 finaliser: a cheap bijective bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func nonzero(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

// valueBits folds a carrier value into hashable bits, canonicalising
// infinities so that equal-under-Key values hash alike.
func valueBits(v value.V) uint64 {
	k := v.Key()
	switch {
	case k.IsPosInf():
		return 0x7ff0_0000_0000_0001
	case k.IsNegInf():
		return 0xfff0_0000_0000_0001
	default:
		return uint64(k.Int64())
	}
}

// Hash returns the structural hash of e: structurally equal expressions
// (per Equal) hash identically. It is the memoisation key of both
// compilers; collisions are resolved by Equal.
func Hash(e Expr) uint64 { return e.hash() }

func (v Var) hash() uint64    { return nonzero(mix64(hashSaltVar ^ uint64(v.ID()))) }
func (c Const) hash() uint64  { return nonzero(mix64(hashSaltConst ^ valueBits(c.V))) }
func (m MConst) hash() uint64 { return nonzero(mix64(hashSaltMConst ^ valueBits(m.V))) }

func (a Add) hash() uint64 {
	if a.h != 0 {
		return a.h
	}
	return hashSeq(hashSaltAdd, a.Terms)
}

func (m Mul) hash() uint64 {
	if m.h != 0 {
		return m.h
	}
	return hashSeq(hashSaltMul, m.Factors)
}

func (t Tensor) hash() uint64 {
	if t.h != 0 {
		return t.h
	}
	h := hashSaltTensor ^ mix64(uint64(t.Agg)+1)
	h = h*hashPrime ^ t.Scalar.hash()
	h = h*hashPrime ^ t.Mod.hash()
	return nonzero(h)
}

func (a AggSum) hash() uint64 {
	if a.h != 0 {
		return a.h
	}
	return hashSeq(hashSaltAggSum^mix64(uint64(a.Agg)+1), a.Terms)
}

func (c Cmp) hash() uint64 {
	if c.h != 0 {
		return c.h
	}
	h := hashSaltCmp ^ mix64(uint64(c.Th)+1)
	h = h*hashPrime ^ c.L.hash()
	h = h*hashPrime ^ c.R.hash()
	return nonzero(h)
}

func hashSeq(salt uint64, es []Expr) uint64 {
	h := salt ^ mix64(uint64(len(es)))
	for _, e := range es {
		h = h*hashPrime ^ e.hash()
	}
	return nonzero(h)
}

// varOcc returns the number of variable occurrences in e, using the count
// cached at construction when available.
func varOcc(e Expr) int32 {
	switch n := e.(type) {
	case Var:
		return 1
	case Const, MConst:
		return 0
	case Add:
		if n.h != 0 {
			return n.nv
		}
		return varOccSeq(n.Terms)
	case Mul:
		if n.h != 0 {
			return n.nv
		}
		return varOccSeq(n.Factors)
	case Tensor:
		if n.h != 0 {
			return n.nv
		}
		return varOcc(n.Scalar) + varOcc(n.Mod)
	case AggSum:
		if n.h != 0 {
			return n.nv
		}
		return varOccSeq(n.Terms)
	case Cmp:
		if n.h != 0 {
			return n.nv
		}
		return varOcc(n.L) + varOcc(n.R)
	default:
		return 0
	}
}

func varOccSeq(es []Expr) int32 {
	var nv int32
	for _, e := range es {
		nv += varOcc(e)
	}
	return nv
}

// Equal reports structural equality: same node kinds, same variables (by
// interned ID), same canonical constant values, same operators, same
// children in the same order. It induces exactly the equivalence the
// canonical rendering String used to key memo tables with.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case Var:
		y, ok := b.(Var)
		return ok && x.ID() == y.ID()
	case Const:
		y, ok := b.(Const)
		return ok && x.V.Key() == y.V.Key()
	case MConst:
		y, ok := b.(MConst)
		return ok && x.V.Key() == y.V.Key()
	case Add:
		y, ok := b.(Add)
		if !ok || len(x.Terms) != len(y.Terms) {
			return false
		}
		if x.h != 0 && y.h != 0 && x.h != y.h {
			return false
		}
		return equalSeq(x.Terms, y.Terms)
	case Mul:
		y, ok := b.(Mul)
		if !ok || len(x.Factors) != len(y.Factors) {
			return false
		}
		if x.h != 0 && y.h != 0 && x.h != y.h {
			return false
		}
		return equalSeq(x.Factors, y.Factors)
	case Tensor:
		y, ok := b.(Tensor)
		if !ok || x.Agg != y.Agg {
			return false
		}
		if x.h != 0 && y.h != 0 && x.h != y.h {
			return false
		}
		return Equal(x.Scalar, y.Scalar) && Equal(x.Mod, y.Mod)
	case AggSum:
		y, ok := b.(AggSum)
		if !ok || x.Agg != y.Agg || len(x.Terms) != len(y.Terms) {
			return false
		}
		if x.h != 0 && y.h != 0 && x.h != y.h {
			return false
		}
		return equalSeq(x.Terms, y.Terms)
	case Cmp:
		y, ok := b.(Cmp)
		if !ok || x.Th != y.Th {
			return false
		}
		if x.h != 0 && y.h != 0 && x.h != y.h {
			return false
		}
		return Equal(x.L, y.L) && Equal(x.R, y.R)
	default:
		return false
	}
}

func equalSeq(a, b []Expr) bool {
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Raw constructors: build a composite node with its structural hash,
// variable-occurrence count and signature precomputed from the cached
// ones of the children, in one pass over them. They do not flatten or
// simplify — that is Sum/Product/MSum's and Simplify's job.

// summary returns what a parent caches about its child e.
func summary(e Expr) (h uint64, nv int32, sig uint64) {
	if h, nv, sig, ok := cached(e); ok {
		return h, nv, sig
	}
	return e.hash(), varOcc(e), Sig(e)
}

func summarySeq(salt uint64, es []Expr) (h uint64, nv int32, sig uint64) {
	h = salt ^ mix64(uint64(len(es)))
	for _, e := range es {
		eh, env, esig := summary(e)
		h = h*hashPrime ^ eh
		nv += env
		sig |= esig
	}
	return nonzero(h), nv, sig
}

func summaryPair(salt uint64, a, b Expr) (h uint64, nv int32, sig uint64) {
	ah, anv, asig := summary(a)
	bh, bnv, bsig := summary(b)
	h = salt*hashPrime ^ ah
	h = h*hashPrime ^ bh
	return nonzero(h), anv + bnv, asig | bsig
}

func newAdd(terms []Expr) Add {
	h, nv, sig := summarySeq(hashSaltAdd, terms)
	return Add{Terms: terms, h: h, sig: sig, nv: nv}
}

func newMul(factors []Expr) Mul {
	h, nv, sig := summarySeq(hashSaltMul, factors)
	return Mul{Factors: factors, h: h, sig: sig, nv: nv}
}

func newAggSum(agg algebra.Agg, terms []Expr) AggSum {
	h, nv, sig := summarySeq(hashSaltAggSum^mix64(uint64(agg)+1), terms)
	return AggSum{Agg: agg, Terms: terms, h: h, sig: sig, nv: nv}
}

// NewTensor builds Φ ⊗ α with cached hash, for callers that hold the
// module side as an expression (Scale covers the common MConst case).
func NewTensor(agg algebra.Agg, scalar, mod Expr) Tensor {
	h, nv, sig := summaryPair(hashSaltTensor^mix64(uint64(agg)+1), scalar, mod)
	return Tensor{Agg: agg, Scalar: scalar, Mod: mod, h: h, sig: sig, nv: nv}
}

func newCmp(th value.Theta, l, r Expr) Cmp {
	h, nv, sig := summaryPair(hashSaltCmp^mix64(uint64(th)+1), l, r)
	return Cmp{Th: th, L: l, R: r, h: h, sig: sig, nv: nv}
}
