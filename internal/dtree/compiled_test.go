package dtree_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/gen"
	"pvcagg/internal/prob"
	"pvcagg/internal/testutil"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// The reference evaluator and measurer: every node through a map keyed by
// (node, cap) resp. node, the generic Convolve at every ⊕ and Map at every
// leaf — dtree.Evaluate and dtree.Measure as they were before nodes
// carried ownership marks and SUM had kernels of its own. The tests below
// hold the shipped ones to these on distribution, EvalStats and Stats, and
// an Evaluator that keeps what it evaluates to them on distribution and
// node count.
//
// Evaluate folds a cluster of SUM/COUNT ⊕ nodes left to right where the
// reference convolves it pairwise in the compiled order, and floating-point
// addition is not associative: the two agree bit for bit only where every
// sum is exact in either order. That holds for dyadic probabilities over
// few variables (sums of multiples of 2⁻ⁿ with n small, which float64
// represents exactly), so those instances are compared at tolerance 0 and
// the others at a relative 1e-12 per probability. The kept evaluation
// never folds and stays bit for bit everywhere.

type refKey struct {
	n   dtree.Node
	cap *prob.Cap
}

type refEvaluator struct {
	env   dtree.Env
	memo  map[refKey]prob.Dist
	stats dtree.EvalStats
}

func refEvaluate(n dtree.Node, env dtree.Env) (prob.Dist, dtree.EvalStats) {
	ev := &refEvaluator{env: env, memo: map[refKey]prob.Dist{}}
	return ev.eval(n, nil), ev.stats
}

func (ev *refEvaluator) eval(n dtree.Node, cap *prob.Cap) prob.Dist {
	key := refKey{n, cap}
	if d, ok := ev.memo[key]; ok {
		return d
	}
	d := ev.evalUncached(n, cap)
	ev.stats.MaxDistSize = max(ev.stats.MaxDistSize, d.Size())
	ev.stats.NodeEvals++
	ev.memo[key] = d
	return d
}

func (ev *refEvaluator) evalUncached(n dtree.Node, cap *prob.Cap) prob.Dist {
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
		if t.Module {
			return prob.Convolve(ev.eval(t.L, cap), ev.eval(t.R, cap), algebra.MonoidFor(t.Agg).Combine, cap)
		}
		return prob.Convolve(ev.eval(t.L, nil), ev.eval(t.R, nil), s.Add, nil)
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
	panic(fmt.Sprintf("unknown node %T", n))
}

func children(n dtree.Node) []dtree.Node {
	switch t := n.(type) {
	case *dtree.PlusNode:
		return []dtree.Node{t.L, t.R}
	case *dtree.TimesNode:
		return []dtree.Node{t.L, t.R}
	case *dtree.TensorNode:
		return []dtree.Node{t.Scalar, t.Mod}
	case *dtree.CmpNode:
		return []dtree.Node{t.L, t.R}
	case *dtree.ExclusiveNode:
		out := make([]dtree.Node, len(t.Branches))
		for i, b := range t.Branches {
			out[i] = b.Child
		}
		return out
	}
	return nil
}

func refMeasure(root dtree.Node) dtree.Stats {
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
		kids := children(n)
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

// sameDist reports whether got and want have the same support and every
// probability of got is within rel of want's, relatively; rel = 0 asks for
// the same pairs bit for bit.
func sameDist(got, want prob.Dist, rel float64) bool {
	g, w := got.Pairs(), want.Pairs()
	if len(g) != len(w) {
		return false
	}
	for i := range g {
		if g[i].V != w[i].V || math.Abs(g[i].P-w[i].P) > rel*math.Max(g[i].P, w[i].P) {
			return false
		}
	}
	return true
}

// assertSameAsReference compares Evaluate on root to the reference, its
// probabilities within rel (see above). A fold builds no distribution for
// a cluster's inner ⊕ nodes, so MaxDistSize may be below the reference's;
// NodeEvals counts them all the same.
func assertSameAsReference(t *testing.T, label string, root dtree.Node, env dtree.Env, rel float64) {
	t.Helper()
	got, gotStats, err := dtree.Evaluate(root, env)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, wantStats := refEvaluate(root, env)
	if !sameDist(got, want, rel) {
		t.Fatalf("%s: distribution %v, reference %v", label, got, want)
	}
	if gotStats.NodeEvals != wantStats.NodeEvals || gotStats.MaxDistSize > wantStats.MaxDistSize {
		t.Fatalf("%s: EvalStats %+v, reference %+v", label, gotStats, wantStats)
	}
	if got, want := dtree.Measure(root), refMeasure(root); got != want {
		t.Fatalf("%s: Measure %+v, reference %+v", label, got, want)
	}
	// An Evaluator that keeps what it evaluates, handed the root's
	// children before the root and the root twice — as trees of one memo
	// reach nodes earlier calls evaluated while they were unique — gives
	// the same distribution and counts each node once.
	ev := dtree.NewEvaluator(env)
	for _, c := range children(root) {
		if _, err := ev.Evaluate(c); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	for i := 0; i < 2; i++ {
		kept, err := ev.Evaluate(root)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !kept.Equal(want, 0) {
			t.Fatalf("%s: kept evaluation %d: %v, reference %v", label, i, kept, want)
		}
	}
	if got, want := ev.Nodes(), refMeasure(root).Nodes; got != want {
		t.Fatalf("%s: kept evaluation counts %d nodes, Measure %d", label, got, want)
	}
}

// TestCompiledTreesMatchReference compiles Eq. (11) expressions over few
// variables — so Shannon expansion meets the same residual again and the
// d-tree is a DAG — and evaluates the marked trees against the reference.
func TestCompiledTreesMatchReference(t *testing.T) {
	aggs := []algebra.Agg{algebra.Sum, algebra.Count, algebra.Min, algebra.Max}
	thetas := []value.Theta{value.LE, value.GE, value.EQ, value.NE, value.LT, value.GT}
	hits := 0
	for seed := int64(1); seed <= 60; seed++ {
		p := gen.Params{
			L: 4 + int(seed%5), R: int(seed % 3), NumVars: 5 + int(seed%4), NumClauses: 2, NumLiterals: 2,
			MaxV: 12, AggL: aggs[seed%4], AggR: aggs[(seed/4)%4], Theta: thetas[seed%6], C: 3 + seed%17, Seed: seed,
		}
		inst := gen.MustNew(p)
		for _, kind := range []algebra.SemiringKind{algebra.Boolean, algebra.Natural} {
			s := algebra.SemiringFor(kind)
			res, err := compile.New(s, inst.Registry, compile.Options{}).Compile(inst.Expr)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			hits += res.Stats.CacheHits
			// Every variable is ½ and there are at most 8: dyadic and few.
			assertSameAsReference(t, fmt.Sprintf("seed %d/%v", seed, kind), res.Root, dtree.Env{Semiring: s, Registry: inst.Registry}, 0)
			if got := dtree.Measure(res.Root).Nodes; got > res.Stats.Nodes {
				t.Fatalf("seed %d: Measure counts %d nodes, the compiler created %d", seed, got, res.Stats.Nodes)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no compilation had a memo hit: the test exercises no shared node")
	}
}

// dagBuilder draws random d-tree DAGs in which nodes of both kinds are
// reused freely — in particular module nodes under several [θ] with
// different caps and with none, the case where a node with one parent is
// still reached twice. Evaluation does not need the independence that
// Validate checks, so none is arranged.
type dagBuilder struct {
	r          *rand.Rand
	sems, mods []dtree.Node
	caps       []*prob.Cap
}

func (g *dagBuilder) reuse(pool []dtree.Node) dtree.Node {
	if len(pool) > 0 && g.r.Intn(3) == 0 {
		return pool[g.r.Intn(len(pool))]
	}
	return nil
}

func (g *dagBuilder) sem(depth int) dtree.Node {
	if n := g.reuse(g.sems); n != nil {
		return n
	}
	var n dtree.Node
	switch k := g.r.Intn(6); {
	case depth <= 0 || k == 0:
		if g.r.Intn(4) == 0 {
			n = &dtree.ConstLeaf{V: value.Int(int64(g.r.Intn(3)))}
		} else {
			n = &dtree.VarLeaf{Name: fmt.Sprintf("v%d", g.r.Intn(6))}
		}
	case k == 1:
		n = &dtree.PlusNode{L: g.sem(depth - 1), R: g.sem(depth - 1)}
	case k == 2:
		n = &dtree.TimesNode{L: g.sem(depth - 1), R: g.sem(depth - 1)}
	case k == 3:
		n = &dtree.ExclusiveNode{Var: "w", Branches: []dtree.Branch{
			{Val: value.Int(0), P: 0.375, Child: g.sem(depth - 1)},
			{Val: value.Int(1), P: 0.625, Child: g.sem(depth - 1)},
		}}
	default:
		n = &dtree.CmpNode{
			Th:  value.Theta(g.r.Intn(6)),
			L:   g.mod(depth - 1),
			R:   &dtree.ConstLeaf{V: value.Int(int64(g.r.Intn(12))), Module: true},
			Cap: g.caps[g.r.Intn(len(g.caps))],
		}
	}
	g.sems = append(g.sems, n)
	return n
}

func (g *dagBuilder) mod(depth int) dtree.Node {
	if n := g.reuse(g.mods); n != nil {
		return n
	}
	var n dtree.Node
	switch k := g.r.Intn(5); {
	case depth <= 0 || k == 0:
		n = &dtree.ConstLeaf{V: value.Int(int64(g.r.Intn(9))), Module: true}
	case k == 1:
		n = &dtree.ExclusiveNode{Var: "w", Branches: []dtree.Branch{
			{Val: value.Int(0), P: 0.25, Child: g.mod(depth - 1)},
			{Val: value.Int(1), P: 0.75, Child: g.mod(depth - 1)},
		}}
	case k == 2:
		n = &dtree.PlusNode{Module: true, Agg: algebra.Sum, L: g.mod(depth - 1), R: g.mod(depth - 1)}
	default:
		n = &dtree.TensorNode{Agg: algebra.Sum, Scalar: g.sem(depth - 1), Mod: g.mod(depth - 1)}
	}
	g.mods = append(g.mods, n)
	return n
}

// markByParents marks every node below root as a compiler would have: by
// the number of parent edges it has. One node in eight is left unmarked,
// which hand-built trees are and which must only ever cost speed.
func markByParents(root dtree.Node, r *rand.Rand) {
	parents := map[dtree.Node]int{root: 0}
	var walk func(dtree.Node)
	walk = func(n dtree.Node) {
		for _, c := range children(n) {
			parents[c]++
			if parents[c] == 1 {
				walk(c)
			}
		}
	}
	walk(root)
	for n, k := range parents {
		switch {
		case r.Intn(8) == 0:
		case k <= 1:
			dtree.MarkUnique(n)
		default:
			dtree.MarkShared(n)
		}
	}
}

func TestMarkedDAGsMatchReference(t *testing.T) {
	reg := vars.NewRegistry()
	for i := 0; i < 6; i++ {
		reg.Declare(fmt.Sprintf("v%d", i), prob.FromPairs([]prob.Pair{
			{V: value.Int(0), P: 0.3}, {V: value.Int(1), P: 0.5}, {V: value.Int(2), P: 0.2},
		}))
	}
	for seed := int64(1); seed <= 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := &dagBuilder{r: r, caps: []*prob.Cap{
			nil, {Above: true, Limit: value.Int(4)}, {Above: true, Limit: value.Int(9)}, {Above: true, Limit: value.Int(9)},
		}}
		root := g.sem(7)
		if seed%2 == 0 {
			root = g.mod(7)
		}
		markByParents(root, r)
		kind := algebra.Boolean
		if seed%3 == 0 {
			kind = algebra.Natural
		}
		assertSameAsReference(t, fmt.Sprintf("seed %d", seed), root, dtree.Env{Semiring: algebra.SemiringFor(kind), Registry: reg}, 1e-12)
	}
}

// independentSum is Σ_SUM xi ⊗ v(i) over n distinct variables — the shape
// of an ungrouped SUM over independent tuples — which compiles without a
// single memo hit into a balanced ⊕ tree of 4n−1 nodes.
func independentSum(tb testing.TB, n int, v func(i int) int64) (dtree.Node, dtree.Env) {
	tb.Helper()
	reg := vars.NewRegistry()
	terms := make([]expr.Expr, n)
	for i := range terms {
		x := fmt.Sprintf("x%d", i)
		reg.DeclareBool(x, 0.5)
		terms[i] = expr.Scale(algebra.Sum, expr.V(x), value.Int(v(i)))
	}
	s := algebra.SemiringFor(algebra.Boolean)
	res, err := compile.New(s, reg, compile.Options{}).Compile(expr.MSum(algebra.Sum, terms...))
	if err != nil {
		tb.Fatal(err)
	}
	if res.Stats.CacheHits != 0 || res.Stats.Nodes != 4*n-1 {
		tb.Fatalf("independent sum of %d terms compiled with %d memo hits into %d nodes", n, res.Stats.CacheHits, res.Stats.Nodes)
	}
	return res.Root, dtree.Env{Semiring: s, Registry: reg}
}

// The values of the two independent sums: 2 and 3 in turn, whose sums fill
// their range (the dense SUM of a TPC-H group), and values spread over
// [1000, 5000), whose sums mostly differ.
func dense(i int) int64  { return int64(2 + i%2) }
func sparse(i int) int64 { return int64(1000 + i*997%4000) }

// TestHitFreeTreeEvaluatesWithoutMap: a compiled tree without memo hits
// has only unique nodes, so evaluating it allocates results and nothing
// else that grows with the tree (a memo of its 4n−1 nodes would add some
// 15 allocations at n = 128 and 47 at n = 1024: map growth). Its ⊕ nodes
// are one cluster. On the dense sum the cost choice folds it: one Dist per
// ⊗ and per constant vi, and the window's, 2n+1 in all, where the
// pairwise order builds one per ⊕ besides (3n−1); the slack is for the
// pooled window and summand stack regrowing after a GC. On the sparse sum
// of 16 terms the pairwise order is the cheaper one — its widest
// convolution is 256×256 cells, each of the fold's sweeps thousands of
// cells wide — so every ⊕ is built: at least 3n−1 allocations. With 2ⁿ
// worlds the sums are not exact in float64, hence the relative tolerance.
func TestHitFreeTreeEvaluatesWithoutMap(t *testing.T) {
	allocs := func(root dtree.Node, env dtree.Env) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := dtree.Evaluate(root, env); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, n := range []int{128, 1024} {
		root, env := independentSum(t, n, dense)
		assertSameAsReference(t, fmt.Sprintf("dense n=%d", n), root, env, 1e-12)
		if testutil.RaceEnabled {
			continue // allocation counts mean nothing under the race detector
		}
		if got, limit := allocs(root, env), float64(2*n+1+8); got > limit {
			t.Errorf("dense n=%d: %v allocations per Evaluate, want at most %v", n, got, limit)
		}
	}
	const n = 16
	root, env := independentSum(t, n, sparse)
	assertSameAsReference(t, fmt.Sprintf("sparse n=%d", n), root, env, 1e-12)
	if got := allocs(root, env); !testutil.RaceEnabled && got < 3*n-1 {
		t.Errorf("sparse n=%d: %v allocations per Evaluate, want the pairwise order's %v or more", n, got, 3*n-1)
	}
}

// BenchmarkEvaluate evaluates the compiled independent sums, one on each
// side of the cost choice. dense: 4096 terms, 16 383 nodes, half of them
// leaves of at most two points, and a result of thousands of points —
// TPC-H Q1's SUM in miniature, folded. sparse: 16 terms spread over
// thousands, 2¹⁶ worlds with few collisions, convolved pairwise.
func BenchmarkEvaluate(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		v    func(int) int64
	}{{"dense", 4096, dense}, {"sparse", 16, sparse}} {
		b.Run(c.name, func(b *testing.B) {
			root, env := independentSum(b, c.n, c.v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := dtree.Evaluate(root, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
