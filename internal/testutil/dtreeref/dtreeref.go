// Package dtreeref holds the reference that d-tree evaluation is tested
// against: binary ⊕ trees, evaluated node by node through a map with the
// generic kernels. A ⊕ of k parts is held to the binary form it stands
// for (Binarise), which is how the n-ary node is shown to change no
// distribution, counter or fold decision.
package dtreeref

import (
	"fmt"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/dtree"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
)

// Parents counts the parent edges of every node below root (root has 0).
func Parents(root dtree.Node) map[dtree.Node]int {
	parents := map[dtree.Node]int{root: 0}
	var walk func(dtree.Node)
	walk = func(n dtree.Node) {
		for _, c := range dtree.Children(n) {
			parents[c]++
			if parents[c] == 1 {
				walk(c)
			}
		}
	}
	walk(root)
	return parents
}

// Binarise copies the d-tree rooted at root, sharing included, with every
// ⊕ of more than two parts replaced by binary ⊕ nodes that pair
// neighbouring parts level by level, an odd last part carried up. Every
// node of the copy is marked by its parents: unique with one or none,
// shared with more — the marks a compiler gives a tree it built.
func Binarise(root dtree.Node) dtree.Node {
	copies := map[dtree.Node]dtree.Node{}
	var cp func(dtree.Node) dtree.Node
	cp = func(n dtree.Node) dtree.Node {
		if c, ok := copies[n]; ok {
			return c
		}
		var c dtree.Node
		switch t := n.(type) {
		case *dtree.VarLeaf:
			c = &dtree.VarLeaf{Name: t.Name, ID: t.ID}
		case *dtree.ConstLeaf:
			c = &dtree.ConstLeaf{V: t.V, Module: t.Module}
		case *dtree.PlusNode:
			level := make([]dtree.Node, len(t.Parts))
			for i, p := range t.Parts {
				level[i] = cp(p)
			}
			for len(level) > 1 {
				var up []dtree.Node
				for i := 0; i < len(level); i += 2 {
					if i+1 == len(level) {
						up = append(up, level[i])
						continue
					}
					up = append(up, &dtree.PlusNode{Module: t.Module, Agg: t.Agg, Parts: []dtree.Node{level[i], level[i+1]}})
				}
				level = up
			}
			c = level[0]
		case *dtree.TimesNode:
			c = &dtree.TimesNode{L: cp(t.L), R: cp(t.R)}
		case *dtree.TensorNode:
			c = &dtree.TensorNode{Agg: t.Agg, Scalar: cp(t.Scalar), Mod: cp(t.Mod)}
		case *dtree.CmpNode:
			c = &dtree.CmpNode{Th: t.Th, L: cp(t.L), R: cp(t.R), Cap: t.Cap}
		case *dtree.ExclusiveNode:
			bs := make([]dtree.Branch, len(t.Branches))
			for i, b := range t.Branches {
				bs[i] = dtree.Branch{Val: b.Val, P: b.P, Child: cp(b.Child)}
			}
			c = &dtree.ExclusiveNode{Var: t.Var, Branches: bs}
		default:
			panic(fmt.Sprintf("dtreeref: unknown node %T", n))
		}
		copies[n] = c
		return c
	}
	out := cp(root)
	for n, k := range Parents(out) {
		if k <= 1 {
			dtree.MarkUnique(n)
		} else {
			dtree.MarkShared(n)
		}
	}
	return out
}

// Measure is dtree.Measure by definition, for a binary tree: a map of
// the nodes seen, and the depth of every path.
func Measure(root dtree.Node) dtree.Stats {
	seen := map[dtree.Node]bool{}
	var s dtree.Stats
	var walk func(n dtree.Node, depth int)
	walk = func(n dtree.Node, depth int) {
		s.Depth = max(s.Depth, depth)
		if seen[n] {
			return
		}
		seen[n] = true
		s.Nodes++
		kids := dtree.Children(n)
		if len(kids) == 0 {
			s.Leaves++
		}
		if _, ok := n.(*dtree.ExclusiveNode); ok {
			s.Exclusive++
		}
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	walk(root, 1)
	return s
}

type key struct {
	n   dtree.Node
	cap *prob.Cap
}

type evaluator struct {
	env     dtree.Env
	fold    bool
	parents map[dtree.Node]int
	memo    map[key]prob.Dist
	stats   dtree.EvalStats
}

// Evaluate evaluates the binary d-tree rooted at root: every (node, cap)
// once, through a map, with the generic prob.Convolve at every inner node
// and prob.Map at every leaf. With fold it decides as dtree.Evaluate
// decides for the parts of one SUM/COUNT ⊕: a cluster — a SUM/COUNT ⊕
// node and the ⊕ nodes of its monoid below it that have one parent — of
// three summands or more is folded into one window (prob.FoldSum) when
// prob.FoldCost is below the cells of the cluster's own pairwise order,
// each inner node's size estimated from its operands. A fold builds no
// inner sum: NodeEvals counts the cluster's inner nodes, MaxDistSize does
// not see them.
func Evaluate(root dtree.Node, env dtree.Env, fold bool) (prob.Dist, dtree.EvalStats) {
	ev := &evaluator{env: env, fold: fold, parents: Parents(root), memo: map[key]prob.Dist{}}
	return ev.eval(root, nil), ev.stats
}

func (ev *evaluator) eval(n dtree.Node, cap *prob.Cap) prob.Dist {
	if d, ok := ev.memo[key{n, cap}]; ok {
		return d
	}
	d := ev.evalUncached(n, cap)
	ev.counted(d)
	ev.memo[key{n, cap}] = d
	return d
}

func (ev *evaluator) counted(d prob.Dist) {
	ev.stats.MaxDistSize = max(ev.stats.MaxDistSize, d.Size())
	ev.stats.NodeEvals++
}

// binary returns the operands of a binary ⊕ node.
func binary(t *dtree.PlusNode) (l, r dtree.Node) {
	if len(t.Parts) != 2 {
		panic(fmt.Sprintf("dtreeref: a ⊕ of %d parts; Binarise the tree first", len(t.Parts)))
	}
	return t.Parts[0], t.Parts[1]
}

func (ev *evaluator) evalUncached(n dtree.Node, cap *prob.Cap) prob.Dist {
	s := ev.env.Semiring
	switch t := n.(type) {
	case *dtree.VarLeaf:
		return prob.Map(ev.env.Registry.MustDist(t.Name), s.Normalise)
	case *dtree.ConstLeaf:
		if t.Module {
			return cap.Clamp(prob.Point(t.V))
		}
		return prob.Point(s.Normalise(t.V))
	case *dtree.PlusNode:
		l, r := binary(t)
		if !t.Module {
			return prob.Convolve(ev.eval(l, nil), ev.eval(r, nil), s.Add, nil)
		}
		if ev.fold && (t.Agg == algebra.Sum || t.Agg == algebra.Count) {
			return ev.evalCluster(t, cap)
		}
		return prob.Convolve(ev.eval(l, cap), ev.eval(r, cap), algebra.MonoidFor(t.Agg).Combine, cap)
	case *dtree.TimesNode:
		return prob.Convolve(ev.eval(t.L, nil), ev.eval(t.R, nil), s.Mul, nil)
	case *dtree.TensorNode:
		mo := algebra.MonoidFor(t.Agg)
		op := func(a, b value.V) value.V { return algebra.Action(s, mo, a, b) }
		return prob.Convolve(ev.eval(t.Scalar, nil), ev.eval(t.Mod, cap), op, cap)
	case *dtree.CmpNode:
		return prob.Map(prob.CmpConvolve(ev.eval(t.L, t.Cap), ev.eval(t.R, nil), t.Th), s.Normalise)
	case *dtree.ExclusiveNode:
		branches := make([]prob.Dist, len(t.Branches))
		weights := make([]float64, len(t.Branches))
		for i, br := range t.Branches {
			branches[i], weights[i] = ev.eval(br.Child, cap), br.P
		}
		return prob.Mixture(branches, weights)
	}
	panic(fmt.Sprintf("dtreeref: unknown node %T", n))
}

// clusterNode reports whether n is a node of the cluster of t: t itself,
// or a ⊕ over t's monoid with one parent below a node of it.
func (ev *evaluator) clusterNode(n dtree.Node, t *dtree.PlusNode) (*dtree.PlusNode, bool) {
	p, ok := n.(*dtree.PlusNode)
	return p, n == t || ok && p.Module && p.Agg == t.Agg && ev.parents[n] == 1
}

// evalCluster evaluates the SUM/COUNT cluster under t: its summands left
// to right through the memo, then one fold or its own pairwise order.
func (ev *evaluator) evalCluster(t *dtree.PlusNode, cap *prob.Cap) prob.Dist {
	var ds []prob.Dist
	var push func(n dtree.Node)
	push = func(n dtree.Node) {
		if p, ok := ev.clusterNode(n, t); ok {
			l, r := binary(p)
			push(l)
			push(r)
			return
		}
		ds = append(ds, ev.eval(n, cap))
	}
	push(t)
	rest := ds
	// pairs returns the cells of the pairwise order under n and n's
	// estimated shape, taking n's summands from the front of rest.
	var pairs func(n dtree.Node) (int, prob.SumShape)
	pairs = func(n dtree.Node) (int, prob.SumShape) {
		if p, ok := ev.clusterNode(n, t); ok {
			l, r := binary(p)
			cl, ls := pairs(l)
			cr, rs := pairs(r)
			return cl + cr + ls.Size*rs.Size, ls.Plus(rs, cap)
		}
		s := prob.ShapeOf(rest[0])
		rest = rest[1:]
		return 0, s
	}
	if cost, ok := prob.FoldCost(ds, cap); ok && len(ds) > 2 {
		if p, _ := pairs(t); cost < p {
			ev.stats.NodeEvals += len(ds) - 2 // the cluster's nodes but t
			return prob.FoldSum(ds, cap)
		}
	}
	rest = ds
	sum := algebra.MonoidFor(t.Agg).Combine
	var conv func(n dtree.Node) prob.Dist
	conv = func(n dtree.Node) prob.Dist {
		if p, ok := ev.clusterNode(n, t); ok {
			l, r := binary(p)
			a := conv(l)
			d := prob.Convolve(a, conv(r), sum, cap)
			if n != t {
				ev.counted(d)
			}
			return d
		}
		d := rest[0]
		rest = rest[1:]
		return d
	}
	return conv(t)
}

// AssertNaryEqualsBinary holds the compiled d-tree rooted at root to its
// binary form (Binarise), with recycled distributions poisoned
// (prob.PoisonRecycledForTest): dtree.Evaluate, twice, to the reference
// evaluation with fold, and a keeping dtree.Evaluator to one without, bit
// for bit, with the same EvalStats, node count and Measure. It also
// checks that no ⊕ has a part that is a ⊕ of its own monoid with one
// parent, which a cluster would merge and the n-ary node does not.
func AssertNaryEqualsBinary(t testing.TB, label string, root dtree.Node, env dtree.Env) {
	t.Helper()
	prob.PoisonRecycledForTest(t)
	parents := Parents(root)
	for n := range parents {
		p, ok := n.(*dtree.PlusNode)
		if !ok {
			continue
		}
		for _, c := range p.Parts {
			if q, ok := c.(*dtree.PlusNode); ok && q.Module == p.Module && q.Agg == p.Agg && parents[c] == 1 {
				t.Fatalf("%s: a ⊕ has a ⊕ part of its own monoid with one parent", label)
			}
		}
	}
	bin := Binarise(root)
	if got, want := dtree.Measure(root), Measure(bin); got != want {
		t.Fatalf("%s: Measure %+v, binary form %+v", label, got, want)
	}
	want, wantStats := Evaluate(bin, env, true)
	for i := range 2 {
		got, gotStats, err := dtree.Evaluate(root, env)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !Same(got, want) || gotStats != wantStats {
			t.Fatalf("%s: evaluation %d gives %v %+v, the binary form %v %+v", label, i, got, gotStats, want, wantStats)
		}
	}
	want, _ = Evaluate(bin, env, false)
	ev, evBin := dtree.NewEvaluator(env), dtree.NewEvaluator(env)
	got, err := ev.Evaluate(root)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	gotBin, err := evBin.Evaluate(bin)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !Same(got, want) || !Same(gotBin, want) || ev.Nodes() != evBin.Nodes() {
		t.Fatalf("%s: kept evaluation gives %v over %d nodes, of the binary form %v over %d, reference %v",
			label, got, ev.Nodes(), gotBin, evBin.Nodes(), want)
	}
}

// Same reports whether got and want hold the same pairs bit for bit.
func Same(got, want prob.Dist) bool {
	g, w := got.Pairs(), want.Pairs()
	if len(g) != len(w) {
		return false
	}
	for i := range g {
		if g[i].V != w[i].V || g[i].P != w[i].P {
			return false
		}
	}
	return true
}
