// Package dtree implements decomposition trees (d-trees), the knowledge
// compilation target of the paper's Section 5 (Definition 7): trees whose
// inner nodes are ⊕ (independent sum), ⊙ (independent product), ⊗
// (independent scalar action), [θ] (independent comparison) and ⊔x
// (mutually exclusive expansion of variable x), and whose leaves are
// variables or constants. The probability distribution of a d-tree is
// computed bottom-up by the convolutions of Eqs. (4)–(10) in one pass
// (Theorem 2).
//
// ⊕ is n-ary, being associative and commutative (Eqs. (4)/(6)): a node of
// k parts is the same tree up to association as the k−1 binary ⊕ nodes
// that pair neighbouring parts level by level (Halve), and Measure and
// evaluation count it, and Measure its depth, as those. ⊙ stays binary.
//
// Ownership: each node's distribution is read once, by its parent, unless
// the node is reached twice (a memo keeps it) or the Evaluator keeps
// everything (NewEvaluator). A parent therefore gives a distribution that
// a kernel made for it, and that no memo holds, back to prob.Recycle as
// soon as it has combined it, at every node kind and every ⊕ monoid, so
// that in steady state an evaluation allocates little beyond the root's
// distribution, which is the caller's. A leaf gives its parent nothing to
// give back — a variable's distribution is its registry's, a constant's
// an interned point — unless normalising or capping it made a new one.
// A compiled tree lives only as long as its compiler's nodes: it must be
// evaluated before the compiler's next Reset.
package dtree

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"pvcagg/internal/algebra"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// Node is a d-tree node. Compiled d-trees may share identical sub-trees
// (the evaluator memoises by node identity), making them DAGs physically
// while remaining trees logically.
type Node interface {
	node() *header
}

// header is embedded in every node type. It carries what the builder of
// the tree knows about the node's parents, so that walks need a visited
// map only where a node can actually be reached twice. The zero value —
// what a struct literal gives — claims nothing.
type header struct{ own ownership }

type ownership uint8

const (
	ownUnknown ownership = iota // hand-built: any number of parents
	ownUnique                   // exactly one parent, or the root
	ownShared                   // two or more parents
)

func (h *header) node() *header { return h }

// MarkUnique records that n was just created and has at most one parent
// so far. A compiler calls it on every node it creates.
func MarkUnique(n Node) { n.node().own = ownUnique }

// MarkShared records that n gained a further parent. A compiler calls it
// whenever it reuses a node it created earlier. Marks are written while
// the tree is built, by the goroutine building it; Evaluate and Measure
// only read them.
func MarkShared(n Node) { n.node().own = ownShared }

// unique reports whether n is known to be reachable along one path only,
// given that its parent is.
func unique(n Node) bool { return n.node().own == ownUnique }

// VarLeaf is a leaf holding a variable x ∈ X; its distribution is Px.
// ID, when non-zero, is the interned vars.ID of Name; the compilers fill
// it so evaluation resolves the distribution with a slice load instead of
// a map lookup.
type VarLeaf struct {
	header
	Name string
	ID   vars.ID
}

// ConstLeaf is a leaf holding a semiring constant s ∈ S or a monoid
// constant m ∈ M (Module reports which); its distribution is {(v, 1)}.
type ConstLeaf struct {
	header
	V      value.V
	Module bool
}

// PlusNode is ⊕: the sum of two or more independent expressions — the
// semiring + when Module is false (Eq. (4)), the monoid +M of Agg when
// true (Eq. (6)). It stands for the balanced binary ⊕ tree over Parts, in
// order (see the package doc), and is evaluated in that pairing unless a
// SUM or COUNT is cheaper to fold (Evaluate).
type PlusNode struct {
	header
	Module bool
	Agg    algebra.Agg
	Parts  []Node
}

// Halve returns how many of k ≥ 2 parts the left operand of their
// balanced binary ⊕ sums: the largest power of two below k. Pairing
// neighbours level by level, the parts of the left operand are those of
// the last level's left node.
func Halve(k int) int { return 1 << (bits.Len(uint(k-1)) - 1) }

// TimesNode is ⊙: the product of two independent semiring expressions
// (Eq. (5)).
type TimesNode struct {
	header
	L, R Node
}

// TensorNode is ⊗: the scalar action of an independent semiring expression
// on a semimodule expression over monoid Agg (Eq. (7)).
type TensorNode struct {
	header
	Agg         algebra.Agg
	Scalar, Mod Node
}

// CmpNode is [θ]: the comparison of two independent expressions
// (Eqs. (8)/(9)). Cap, when non-nil, is the value cap the compiler proved
// sound for the operand distributions (Section 5, pruning): it bounds the
// size of intermediate distributions under this node.
type CmpNode struct {
	header
	Th   value.Theta
	L, R Node
	Cap  *prob.Cap
}

// Branch is one child of a ⊔x node: the sub-tree for Φ|x←Val, weighted by
// P = Px[Val].
type Branch struct {
	Val   value.V
	P     float64
	Child Node
}

// ExclusiveNode is ⊔x: the mutually exclusive expansion of variable x over
// every value of non-zero probability (Eq. (10)).
type ExclusiveNode struct {
	header
	Var      string
	Branches []Branch
}

// Stats summarises a d-tree for reporting: node and leaf counts, depth,
// and the number of ⊔ (Shannon) nodes — the quantity that separates the
// polynomial-time fragment (zero ⊔ nodes beyond variable elimination) from
// the general case.
type Stats struct {
	Nodes     int
	Leaves    int
	Depth     int
	Exclusive int
}

// Children returns n's children in order: a ⊔x node's are its branches'.
func Children(n Node) []Node {
	switch t := n.(type) {
	case *VarLeaf, *ConstLeaf:
		return nil
	case *PlusNode:
		return t.Parts
	case *TimesNode:
		return []Node{t.L, t.R}
	case *TensorNode:
		return []Node{t.Scalar, t.Mod}
	case *CmpNode:
		return []Node{t.L, t.R}
	case *ExclusiveNode:
		out := make([]Node, len(t.Branches))
		for i, b := range t.Branches {
			out[i] = b.Child
		}
		return out
	default:
		panic(fmt.Sprintf("dtree: unknown node %T", n))
	}
}

// symbol is n's label in DOT and in Validate's errors.
func symbol(n Node) string {
	switch t := n.(type) {
	case *VarLeaf:
		return t.Name
	case *ConstLeaf:
		return t.V.String()
	case *PlusNode:
		return "⊕"
	case *TimesNode:
		return "⊙"
	case *TensorNode:
		return "⊗"
	case *CmpNode:
		return "[" + t.Th.String() + "]"
	case *ExclusiveNode:
		return "⊔" + t.Var
	default:
		panic(fmt.Sprintf("dtree: unknown node %T", n))
	}
}

// Measure computes Stats, counting shared sub-trees once and a ⊕ of k
// parts as the k−1 nodes of its balanced binary form, whose depth it
// measures too.
func Measure(n Node) Stats {
	var seen map[Node]struct{} // nodes not marked unique, which may recur
	var s Stats
	var walk func(n Node, depth int)
	// pairs walks the parts of a ⊕ whose binary node over them lies at
	// depth.
	var pairs func(parts []Node, depth int)
	pairs = func(parts []Node, depth int) {
		if len(parts) == 1 {
			walk(parts[0], depth)
			return
		}
		h := Halve(len(parts))
		pairs(parts[:h], depth+1)
		pairs(parts[h:], depth+1)
	}
	walk = func(n Node, depth int) {
		s.Depth = max(s.Depth, depth)
		if !unique(n) {
			if _, ok := seen[n]; ok {
				return
			}
			if seen == nil {
				seen = map[Node]struct{}{}
			}
			seen[n] = struct{}{}
		}
		s.Nodes++
		switch t := n.(type) {
		case *VarLeaf, *ConstLeaf:
			s.Leaves++
		case *PlusNode:
			s.Nodes += len(t.Parts) - 2
			pairs(t.Parts, depth)
			return
		case *ExclusiveNode:
			s.Exclusive++
		}
		for _, c := range Children(n) {
			walk(c, depth+1)
		}
	}
	walk(n, 1)
	return s
}

// Variables returns the set of variables at the leaves below n, sorted.
func Variables(n Node) []string {
	set := map[string]struct{}{}
	seen := map[Node]struct{}{}
	var walk func(Node)
	walk = func(n Node) {
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		if v, ok := n.(*VarLeaf); ok {
			set[v.Name] = struct{}{}
		}
		for _, c := range Children(n) {
			walk(c)
		}
	}
	walk(n)
	out := make([]string, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

// Validate checks the d-tree property of Definition 7: the children of
// every ⊕, ⊙, ⊗ and [θ] node mention disjoint variable sets, and no
// branch of ⊔x mentions x. It also checks that every ⊕ has two parts or
// more.
func Validate(n Node) error {
	var walk func(Node) (map[string]struct{}, error)
	walk = func(n Node) (map[string]struct{}, error) {
		switch t := n.(type) {
		case *VarLeaf:
			return map[string]struct{}{t.Name: {}}, nil
		case *ConstLeaf:
			return nil, nil
		case *ExclusiveNode:
			all := map[string]struct{}{}
			for _, b := range t.Branches {
				vs, err := walk(b.Child)
				if err != nil {
					return nil, err
				}
				for x := range vs {
					if x == t.Var {
						return nil, fmt.Errorf("dtree: branch of ⊔%s still mentions %s", t.Var, x)
					}
					all[x] = struct{}{}
				}
			}
			all[t.Var] = struct{}{}
			return all, nil
		}
		if p, ok := n.(*PlusNode); ok && len(p.Parts) < 2 {
			return nil, fmt.Errorf("dtree: ⊕ of %d parts", len(p.Parts))
		}
		// The children of the other nodes are independent.
		var all map[string]struct{}
		for _, c := range Children(n) {
			vs, err := walk(c)
			if err != nil {
				return nil, err
			}
			if all == nil { // the first child, or constants so far
				all = vs
				continue
			}
			for x := range vs {
				if _, ok := all[x]; ok {
					return nil, fmt.Errorf("dtree: %s children share variable %s", symbol(n), x)
				}
				all[x] = struct{}{}
			}
		}
		return all, nil
	}
	_, err := walk(n)
	return err
}

// String renders the d-tree in an indented form for debugging and docs.
func String(n Node) string {
	var b strings.Builder
	var walk func(n Node, indent string)
	walk = func(n Node, indent string) {
		label := symbol(n)
		switch t := n.(type) {
		case *VarLeaf:
			label = "var " + t.Name
		case *ConstLeaf:
			sort := "s"
			if t.Module {
				sort = "m"
			}
			label = fmt.Sprintf("const %s:%v", sort, t.V)
		case *PlusNode:
			if t.Module {
				label += strings.ToLower(t.Agg.String())
			}
		case *TensorNode:
			label += strings.ToLower(t.Agg.String())
		case *ExclusiveNode:
			fmt.Fprintf(&b, "%s%s\n", indent, label)
			for _, br := range t.Branches {
				fmt.Fprintf(&b, "%s %s←%v (p=%.4g)\n", indent, t.Var, br.Val, br.P)
				walk(br.Child, indent+"  ")
			}
			return
		}
		fmt.Fprintf(&b, "%s%s\n", indent, label)
		for _, c := range Children(n) {
			walk(c, indent+"  ")
		}
	}
	walk(n, "")
	return b.String()
}

// DOT renders the d-tree in Graphviz DOT syntax.
func DOT(n Node) string {
	var b strings.Builder
	b.WriteString("digraph dtree {\n  node [shape=box];\n")
	ids := map[Node]int{}
	id := func(n Node) int {
		if i, ok := ids[n]; ok {
			return i
		}
		i := len(ids)
		ids[n] = i
		return i
	}
	seen := map[Node]struct{}{}
	var walk func(Node)
	walk = func(n Node) {
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", id(n), symbol(n))
		if t, ok := n.(*ExclusiveNode); ok {
			for _, br := range t.Branches {
				fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", id(n), id(br.Child), fmt.Sprintf("%s←%v", t.Var, br.Val))
				walk(br.Child)
			}
			return
		}
		kids := Children(n)
		for _, c := range kids {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", id(n), id(c))
		}
		for _, c := range kids {
			walk(c)
		}
	}
	walk(n)
	b.WriteString("}\n")
	return b.String()
}
