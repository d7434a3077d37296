// Package expr implements the expression language of the paper's Figure 2:
// semiring expressions Φ over a set X of random variables, semimodule
// expressions α = Φ1⊗m1 +op … +op Φn⊗mn, and conditional expressions
// [Φ θ Ψ] and [α θ β]. Expressions are the annotations and aggregation
// values stored in pvc-tables and the input to d-tree compilation.
package expr

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"pvcagg/internal/algebra"
	"pvcagg/internal/value"
)

// Kind distinguishes the two sorts of the grammar: semiring expressions
// (sort Φ, elements of K) and semimodule expressions (sort α, elements of
// K ⊗ M).
type Kind int

const (
	// KindSemiring marks expressions denoting semiring elements.
	KindSemiring Kind = iota
	// KindModule marks expressions denoting aggregation-monoid elements.
	KindModule
)

func (k Kind) String() string {
	if k == KindSemiring {
		return "semiring"
	}
	return "module"
}

// Expr is a node of the expression AST. Implementations are Var, Const,
// MConst, Add, Mul, Tensor, AggSum and Cmp. Expressions are immutable once
// built; all rewriting returns new nodes. Composite nodes built through
// the constructors (Sum, Product, Scale, MSum, Compare, NewTensor, V and
// the rewrites in Simplify/Restrict) carry a cached structural hash, a
// variable-occurrence count and a variable signature (Sig: one bit per
// variable ID mod 64), making Hash, Equal, HasVars and the "does this
// sub-tree mention x / share a variable with that one" tests cheap on the
// compilation hot path; plain struct literals still work and fall back to
// recomputing all three on demand.
type Expr interface {
	// Kind returns the sort of the expression.
	Kind() Kind
	// appendString writes the canonical rendering (diagnostics only; the
	// compilers memoise on Hash/Equal).
	appendString(b *printer)
	// collectVars adds every variable occurrence to counts.
	collectVars(counts map[string]int)
	// hash returns the structural hash, cached at construction for
	// composite nodes.
	hash() uint64
}

// Var is a variable symbol x ∈ X (a semiring expression). The unexported
// id caches the interned VarID (see Intern); V fills it at construction.
type Var struct {
	Name string
	id   VarID
}

// Const is a constant s ∈ S of the annotation semiring.
type Const struct{ V value.V }

// MConst is a constant m ∈ M of an aggregation monoid.
type MConst struct{ V value.V }

// Add is an n-ary semiring sum Φ1 + … + Φn.
type Add struct {
	Terms []Expr
	h     uint64
	sig   uint64
	nv    int32
}

// Mul is an n-ary semiring product Φ1 · … · Φn.
type Mul struct {
	Factors []Expr
	h       uint64
	sig     uint64
	nv      int32
}

// Tensor is the semimodule scalar action Φ ⊗ α: Scalar is a semiring
// expression, Mod a semimodule expression (usually an MConst), and Agg
// names the monoid whose action applies.
type Tensor struct {
	Agg    algebra.Agg
	Scalar Expr
	Mod    Expr
	h      uint64
	sig    uint64
	nv     int32
}

// AggSum is the monoid sum α1 +op … +op αn over the monoid named by Agg.
type AggSum struct {
	Agg   algebra.Agg
	Terms []Expr
	h     uint64
	sig   uint64
	nv    int32
}

// Cmp is the conditional expression [L θ R]. Both sides must have the same
// Kind (two semiring or two semimodule expressions); the result is a
// semiring expression evaluating to 1S or 0S (paper Eq. (2)).
type Cmp struct {
	Th   value.Theta
	L, R Expr
	h    uint64
	sig  uint64
	nv   int32
}

// Kind implementations.

func (Var) Kind() Kind    { return KindSemiring }
func (Const) Kind() Kind  { return KindSemiring }
func (MConst) Kind() Kind { return KindModule }
func (Add) Kind() Kind    { return KindSemiring }
func (Mul) Kind() Kind    { return KindSemiring }
func (Tensor) Kind() Kind { return KindModule }
func (AggSum) Kind() Kind { return KindModule }
func (Cmp) Kind() Kind    { return KindSemiring }

// Convenience constructors.

// V returns the variable named x, interned.
func V(x string) Var { return Var{Name: x, id: Intern(x)} }

// CInt returns the semiring integer constant n.
func CInt(n int64) Const { return Const{value.Int(n)} }

// CBool returns the semiring Boolean constant.
func CBool(b bool) Const { return Const{value.Bool(b)} }

// MInt returns the monoid integer constant n.
func MInt(n int64) MConst { return MConst{value.Int(n)} }

// Sum builds a flattened semiring sum of the given terms.
func Sum(terms ...Expr) Expr {
	flat := make([]Expr, 0, len(terms))
	for _, t := range terms {
		if a, ok := t.(Add); ok {
			flat = append(flat, a.Terms...)
		} else {
			flat = append(flat, t)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return newAdd(flat)
}

// Product builds a flattened semiring product of the given factors.
func Product(factors ...Expr) Expr {
	flat := make([]Expr, 0, len(factors))
	for _, f := range factors {
		if m, ok := f.(Mul); ok {
			flat = append(flat, m.Factors...)
		} else {
			flat = append(flat, f)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return newMul(flat)
}

// Scale builds Φ ⊗ m for monoid agg.
func Scale(agg algebra.Agg, scalar Expr, m value.V) Tensor {
	return NewTensor(agg, scalar, MConst{m})
}

// MSum builds a flattened monoid sum over agg.
func MSum(agg algebra.Agg, terms ...Expr) Expr {
	flat := make([]Expr, 0, len(terms))
	for _, t := range terms {
		if a, ok := t.(AggSum); ok && a.Agg == agg {
			flat = append(flat, a.Terms...)
		} else {
			flat = append(flat, t)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return newAggSum(agg, flat)
}

// AdoptSum, AdoptProduct and AdoptMSum are Sum, Product and MSum for a
// caller that gives its slice away: when no element is a node of the
// kind being built — the children, or any regrouping of the children, of
// a node in simplified form — the slice becomes the node's children as
// it is, with no copy. The caller must not write to it afterwards. An
// element of the node's own kind falls back to the flattening
// constructor.

// AdoptSum builds the semiring sum of terms, taking ownership of terms.
func AdoptSum(terms []Expr) Expr {
	if len(terms) == 1 {
		return terms[0]
	}
	for _, t := range terms {
		if _, ok := t.(Add); ok {
			return Sum(terms...)
		}
	}
	return newAdd(terms)
}

// AdoptProduct builds the semiring product of factors, taking ownership
// of factors.
func AdoptProduct(factors []Expr) Expr {
	if len(factors) == 1 {
		return factors[0]
	}
	for _, f := range factors {
		if _, ok := f.(Mul); ok {
			return Product(factors...)
		}
	}
	return newMul(factors)
}

// AdoptMSum builds the monoid sum of terms over agg, taking ownership of
// terms.
func AdoptMSum(agg algebra.Agg, terms []Expr) Expr {
	if len(terms) == 1 {
		return terms[0]
	}
	for _, t := range terms {
		if a, ok := t.(AggSum); ok && a.Agg == agg {
			return MSum(agg, terms...)
		}
	}
	return newAggSum(agg, terms)
}

// Compare builds the conditional expression [l θ r].
func Compare(th value.Theta, l, r Expr) Cmp { return newCmp(th, l, r) }

// Validate checks well-formedness: sort correctness of all sub-expressions
// and monoid consistency inside semimodule sums. It returns the first
// violation found.
func Validate(e Expr) error {
	switch n := e.(type) {
	case Var, Const, MConst:
		return nil
	case Add:
		if len(n.Terms) == 0 {
			return fmt.Errorf("expr: empty semiring sum")
		}
		for _, t := range n.Terms {
			if t.Kind() != KindSemiring {
				return fmt.Errorf("expr: semiring sum over module term %s", String(t))
			}
			if err := Validate(t); err != nil {
				return err
			}
		}
		return nil
	case Mul:
		if len(n.Factors) == 0 {
			return fmt.Errorf("expr: empty semiring product")
		}
		for _, f := range n.Factors {
			if f.Kind() != KindSemiring {
				return fmt.Errorf("expr: semiring product over module factor %s", String(f))
			}
			if err := Validate(f); err != nil {
				return err
			}
		}
		return nil
	case Tensor:
		if n.Scalar.Kind() != KindSemiring {
			return fmt.Errorf("expr: tensor scalar %s is not a semiring expression", String(n.Scalar))
		}
		if n.Mod.Kind() != KindModule {
			return fmt.Errorf("expr: tensor module side %s is not a module expression", String(n.Mod))
		}
		if err := checkAgg(n.Mod, n.Agg); err != nil {
			return err
		}
		if err := Validate(n.Scalar); err != nil {
			return err
		}
		return Validate(n.Mod)
	case AggSum:
		if len(n.Terms) == 0 {
			return fmt.Errorf("expr: empty %v sum", n.Agg)
		}
		for _, t := range n.Terms {
			if t.Kind() != KindModule {
				return fmt.Errorf("expr: %v sum over semiring term %s", n.Agg, String(t))
			}
			if err := checkAgg(t, n.Agg); err != nil {
				return err
			}
			if err := Validate(t); err != nil {
				return err
			}
		}
		return nil
	case Cmp:
		if n.L.Kind() != n.R.Kind() {
			return fmt.Errorf("expr: comparison of %v against %v expression", n.L.Kind(), n.R.Kind())
		}
		if err := Validate(n.L); err != nil {
			return err
		}
		return Validate(n.R)
	default:
		return fmt.Errorf("expr: unknown node %T", e)
	}
}

// checkAgg verifies that a module expression uses monoid agg throughout.
func checkAgg(e Expr, agg algebra.Agg) error {
	switch n := e.(type) {
	case MConst:
		return nil
	case Tensor:
		if !sameMonoid(n.Agg, agg) {
			return fmt.Errorf("expr: monoid mismatch: %v inside %v context", n.Agg, agg)
		}
		return nil
	case AggSum:
		if !sameMonoid(n.Agg, agg) {
			return fmt.Errorf("expr: monoid mismatch: %v sum inside %v context", n.Agg, agg)
		}
		return nil
	default:
		return nil
	}
}

// sameMonoid treats COUNT and SUM as the same monoid (COUNT is SUM over
// unit weights, paper Figure 4).
func sameMonoid(a, b algebra.Agg) bool {
	norm := func(x algebra.Agg) algebra.Agg {
		if x == algebra.Count {
			return algebra.Sum
		}
		return x
	}
	return norm(a) == norm(b)
}

// Vars returns the set of variables occurring in e, sorted by name.
func Vars(e Expr) []string {
	counts := map[string]int{}
	e.collectVars(counts)
	out := make([]string, 0, len(counts))
	for x := range counts {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

// VarCounts returns the number of occurrences of each variable in e, the
// statistic behind the Shannon-expansion heuristic ("choose a variable with
// most occurrences", Section 5).
func VarCounts(e Expr) map[string]int {
	counts := map[string]int{}
	e.collectVars(counts)
	return counts
}

// HasVars reports whether e contains at least one variable. Constructor-
// built composite nodes answer in O(1) from the variable-occurrence count
// cached at construction.
func HasVars(e Expr) bool {
	switch n := e.(type) {
	case Var:
		return true
	case Const, MConst:
		return false
	case Add:
		if n.h != 0 {
			return n.nv > 0
		}
		for _, t := range n.Terms {
			if HasVars(t) {
				return true
			}
		}
		return false
	case Mul:
		if n.h != 0 {
			return n.nv > 0
		}
		for _, f := range n.Factors {
			if HasVars(f) {
				return true
			}
		}
		return false
	case Tensor:
		if n.h != 0 {
			return n.nv > 0
		}
		return HasVars(n.Scalar) || HasVars(n.Mod)
	case AggSum:
		if n.h != 0 {
			return n.nv > 0
		}
		for _, t := range n.Terms {
			if HasVars(t) {
				return true
			}
		}
		return false
	case Cmp:
		if n.h != 0 {
			return n.nv > 0
		}
		return HasVars(n.L) || HasVars(n.R)
	default:
		panic(fmt.Sprintf("expr: unknown node %T", e))
	}
}

func (v Var) collectVars(c map[string]int) { c[v.Name]++ }
func (Const) collectVars(map[string]int)   {}
func (MConst) collectVars(map[string]int)  {}
func (a Add) collectVars(c map[string]int) {
	for _, t := range a.Terms {
		t.collectVars(c)
	}
}
func (m Mul) collectVars(c map[string]int) {
	for _, f := range m.Factors {
		f.collectVars(c)
	}
}
func (t Tensor) collectVars(c map[string]int) {
	t.Scalar.collectVars(c)
	t.Mod.collectVars(c)
}
func (a AggSum) collectVars(c map[string]int) {
	for _, t := range a.Terms {
		t.collectVars(c)
	}
}
func (cm Cmp) collectVars(c map[string]int) {
	cm.L.collectVars(c)
	cm.R.collectVars(c)
}

// String renders e in the concrete syntax accepted by Parse. The rendering
// is canonical for structurally equal expressions; it is used for
// diagnostics and parsing round-trips (compilation memoises on the cached
// structural hash, see Hash and Equal).
func String(e Expr) string {
	var b printer
	e.appendString(&b)
	return b.String()
}

// abbrevLen is the longest rendering Abbrev prints in full.
const abbrevLen = 160

// Abbrev renders e for error messages in bounded space: the canonical
// rendering when it is at most abbrevLen bytes, otherwise that prefix of
// it followed by the node count and structural hash of the whole — query
// annotations run to tens of kilobytes, and errors are built per tuple
// and often discarded.
func Abbrev(e Expr) string {
	b := printer{max: abbrevLen}
	e.appendString(&b)
	if b.Len() <= abbrevLen {
		return b.String()
	}
	cut := abbrevLen
	for cut > 0 && !utf8.RuneStart(b.String()[cut]) {
		cut--
	}
	return fmt.Sprintf("%s… (%d nodes, hash %016x)", b.String()[:cut], Size(e), Hash(e))
}

// Size returns the number of nodes of e.
func Size(e Expr) int {
	switch n := e.(type) {
	case Add:
		return 1 + sizeSeq(n.Terms)
	case Mul:
		return 1 + sizeSeq(n.Factors)
	case Tensor:
		return 1 + Size(n.Scalar) + Size(n.Mod)
	case AggSum:
		return 1 + sizeSeq(n.Terms)
	case Cmp:
		return 1 + Size(n.L) + Size(n.R)
	default:
		return 1
	}
}

func sizeSeq(es []Expr) int {
	n := 0
	for _, e := range es {
		n += Size(e)
	}
	return n
}

// printer accumulates a rendering; with max > 0 the n-ary nodes stop
// adding children once max bytes are written, so a bounded prefix costs
// bounded work.
type printer struct {
	strings.Builder
	max int
}

func (b *printer) full() bool { return b.max > 0 && b.Len() > b.max }

func (v Var) appendString(b *printer)   { b.WriteString(v.Name) }
func (c Const) appendString(b *printer) { b.WriteString(c.V.String()) }
func (m MConst) appendString(b *printer) {
	b.WriteString("m:")
	b.WriteString(m.V.String())
}

func (a Add) appendString(b *printer) {
	b.WriteByte('(')
	for i, t := range a.Terms {
		if b.full() {
			return
		}
		if i > 0 {
			b.WriteString(" + ")
		}
		t.appendString(b)
	}
	b.WriteByte(')')
}

func (m Mul) appendString(b *printer) {
	b.WriteByte('(')
	for i, f := range m.Factors {
		if b.full() {
			return
		}
		if i > 0 {
			b.WriteByte('*')
		}
		f.appendString(b)
	}
	b.WriteByte(')')
}

func (t Tensor) appendString(b *printer) {
	b.WriteByte('(')
	t.Scalar.appendString(b)
	b.WriteString(" @")
	b.WriteString(strings.ToLower(t.Agg.String()))
	b.WriteByte(' ')
	t.Mod.appendString(b)
	b.WriteByte(')')
}

func (a AggSum) appendString(b *printer) {
	b.WriteString(strings.ToLower(a.Agg.String()))
	b.WriteByte('(')
	for i, t := range a.Terms {
		if b.full() {
			return
		}
		if i > 0 {
			b.WriteString(", ")
		}
		t.appendString(b)
	}
	b.WriteByte(')')
}

func (c Cmp) appendString(b *printer) {
	b.WriteByte('[')
	c.L.appendString(b)
	b.WriteByte(' ')
	b.WriteString(c.Th.String())
	b.WriteByte(' ')
	c.R.appendString(b)
	b.WriteByte(']')
}
