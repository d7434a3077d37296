// Package dtree implements decomposition trees (d-trees), the knowledge
// compilation target of the paper's Section 5 (Definition 7): trees whose
// inner nodes are ⊕ (independent sum), ⊙ (independent product), ⊗
// (independent scalar action), [θ] (independent comparison) and ⊔x
// (mutually exclusive expansion of variable x), and whose leaves are
// variables or constants. The probability distribution of a d-tree is
// computed bottom-up by the convolutions of Eqs. (4)–(10) in one pass
// (Theorem 2).
package dtree

import (
	"fmt"
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

// PlusNode is ⊕: the sum of two independent expressions — the semiring +
// when Module is false (Eq. (4)), the monoid +M of Agg when true (Eq. (6)).
type PlusNode struct {
	header
	Module bool
	Agg    algebra.Agg
	L, R   Node
}

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

// Measure computes Stats, counting shared sub-trees once.
func Measure(n Node) Stats {
	var seen map[Node]struct{} // nodes not marked unique, which may recur
	var s Stats
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		if depth > s.Depth {
			s.Depth = depth
		}
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
			walk(t.L, depth+1)
			walk(t.R, depth+1)
		case *TimesNode:
			walk(t.L, depth+1)
			walk(t.R, depth+1)
		case *TensorNode:
			walk(t.Scalar, depth+1)
			walk(t.Mod, depth+1)
		case *CmpNode:
			walk(t.L, depth+1)
			walk(t.R, depth+1)
		case *ExclusiveNode:
			s.Exclusive++
			for _, b := range t.Branches {
				walk(b.Child, depth+1)
			}
		default:
			panic(fmt.Sprintf("dtree: unknown node %T", n))
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
		switch t := n.(type) {
		case *VarLeaf:
			set[t.Name] = struct{}{}
		case *ConstLeaf:
		case *PlusNode:
			walk(t.L)
			walk(t.R)
		case *TimesNode:
			walk(t.L)
			walk(t.R)
		case *TensorNode:
			walk(t.Scalar)
			walk(t.Mod)
		case *CmpNode:
			walk(t.L)
			walk(t.R)
		case *ExclusiveNode:
			for _, b := range t.Branches {
				walk(b.Child)
			}
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
// branch of ⊔x mentions x.
func Validate(n Node) error {
	var walk func(Node) (map[string]struct{}, error)
	walk = func(n Node) (map[string]struct{}, error) {
		switch t := n.(type) {
		case *VarLeaf:
			return map[string]struct{}{t.Name: {}}, nil
		case *ConstLeaf:
			return nil, nil
		case *PlusNode:
			return independentPair(t.L, t.R, "⊕", walk)
		case *TimesNode:
			return independentPair(t.L, t.R, "⊙", walk)
		case *TensorNode:
			return independentPair(t.Scalar, t.Mod, "⊗", walk)
		case *CmpNode:
			return independentPair(t.L, t.R, "[θ]", walk)
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
		default:
			return nil, fmt.Errorf("dtree: unknown node %T", n)
		}
	}
	_, err := walk(n)
	return err
}

func independentPair(l, r Node, op string, walk func(Node) (map[string]struct{}, error)) (map[string]struct{}, error) {
	lv, err := walk(l)
	if err != nil {
		return nil, err
	}
	rv, err := walk(r)
	if err != nil {
		return nil, err
	}
	if lv == nil { // a constant left child
		return rv, nil
	}
	for x := range lv {
		if _, ok := rv[x]; ok {
			return nil, fmt.Errorf("dtree: %s children share variable %s", op, x)
		}
	}
	for x := range rv {
		lv[x] = struct{}{}
	}
	return lv, nil
}

// String renders the d-tree in an indented form for debugging and docs.
func String(n Node) string {
	var b strings.Builder
	var walk func(n Node, indent string)
	walk = func(n Node, indent string) {
		switch t := n.(type) {
		case *VarLeaf:
			fmt.Fprintf(&b, "%svar %s\n", indent, t.Name)
		case *ConstLeaf:
			sort := "s"
			if t.Module {
				sort = "m"
			}
			fmt.Fprintf(&b, "%sconst %s:%v\n", indent, sort, t.V)
		case *PlusNode:
			label := "⊕"
			if t.Module {
				label = "⊕" + strings.ToLower(t.Agg.String())
			}
			fmt.Fprintf(&b, "%s%s\n", indent, label)
			walk(t.L, indent+"  ")
			walk(t.R, indent+"  ")
		case *TimesNode:
			fmt.Fprintf(&b, "%s⊙\n", indent)
			walk(t.L, indent+"  ")
			walk(t.R, indent+"  ")
		case *TensorNode:
			fmt.Fprintf(&b, "%s⊗%s\n", indent, strings.ToLower(t.Agg.String()))
			walk(t.Scalar, indent+"  ")
			walk(t.Mod, indent+"  ")
		case *CmpNode:
			fmt.Fprintf(&b, "%s[%s]\n", indent, t.Th)
			walk(t.L, indent+"  ")
			walk(t.R, indent+"  ")
		case *ExclusiveNode:
			fmt.Fprintf(&b, "%s⊔%s\n", indent, t.Var)
			for _, br := range t.Branches {
				fmt.Fprintf(&b, "%s %s←%v (p=%.4g)\n", indent, t.Var, br.Val, br.P)
				walk(br.Child, indent+"  ")
			}
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
	var id func(Node) int
	var walk func(Node)
	id = func(n Node) int {
		if i, ok := ids[n]; ok {
			return i
		}
		i := len(ids)
		ids[n] = i
		return i
	}
	emit := func(n Node, label string) {
		fmt.Fprintf(&b, "  n%d [label=%q];\n", id(n), label)
	}
	edge := func(from, to Node, label string) {
		if label == "" {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", id(from), id(to))
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", id(from), id(to), label)
		}
	}
	seen := map[Node]struct{}{}
	walk = func(n Node) {
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = struct{}{}
		switch t := n.(type) {
		case *VarLeaf:
			emit(n, t.Name)
		case *ConstLeaf:
			emit(n, t.V.String())
		case *PlusNode:
			emit(n, "⊕")
			edge(n, t.L, "")
			edge(n, t.R, "")
			walk(t.L)
			walk(t.R)
		case *TimesNode:
			emit(n, "⊙")
			edge(n, t.L, "")
			edge(n, t.R, "")
			walk(t.L)
			walk(t.R)
		case *TensorNode:
			emit(n, "⊗")
			edge(n, t.Scalar, "")
			edge(n, t.Mod, "")
			walk(t.Scalar)
			walk(t.Mod)
		case *CmpNode:
			emit(n, "["+t.Th.String()+"]")
			edge(n, t.L, "")
			edge(n, t.R, "")
			walk(t.L)
			walk(t.R)
		case *ExclusiveNode:
			emit(n, "⊔"+t.Var)
			for _, br := range t.Branches {
				edge(n, br.Child, fmt.Sprintf("%s←%v", t.Var, br.Val))
				walk(br.Child)
			}
		}
	}
	walk(n)
	b.WriteString("}\n")
	return b.String()
}
