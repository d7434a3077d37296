package compile

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// "Identical d-trees" as a test: the ten Stats fields and a structural
// digest of the compiled d-tree for a fixed set of expressions, recorded
// in testdata/dtree_golden.json. A change to the expression substrate
// (Restrict, the folds, the independence partition, variable choice) that
// claims to leave compilation alone must pass it without regenerating; a
// change that means to alter d-trees regenerates it with
// `go test ./internal/compile -run TestDTreeGolden -update-dtree-golden`
// and says so.

var updateDTreeGolden = flag.Bool("update-dtree-golden", false, "rewrite testdata/dtree_golden.json from this build's d-trees")

type goldenCase struct {
	name string
	s    algebra.Semiring
	reg  *vars.Registry
	e    expr.Expr
	opts Options
}

type goldenRow struct {
	Name   string `json:"name"`
	Stats  Stats  `json:"stats"`
	Digest string `json:"digest"`
}

// eq11 are the parameters of one generated expression [Σ_agg Φi ⊗ vi θ c]
// of the paper's Eq. (11), as internal/gen draws them (gen imports this
// package through the engine, so the test draws its own): l terms, each
// Φi a sum of clauses, each clause a product of positive literals over
// numVars Boolean variables of probability ½.
type eq11 struct {
	numVars, clauses, literals, l int
	maxV, c                       int64
	agg                           algebra.Agg
	theta                         value.Theta
}

func (p eq11) instance(name string, seed int64) goldenCase {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, p.numVars)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	terms := make([]expr.Expr, p.l)
	for i := range terms {
		v := value.Int(rng.Int63n(p.maxV + 1))
		if p.agg == algebra.Count {
			v = value.Int(1)
		}
		clauses := make([]expr.Expr, p.clauses)
		for j := range clauses {
			lits := make([]expr.Expr, p.literals)
			for k := range lits {
				lits[k] = expr.V(names[rng.Intn(len(names))])
			}
			clauses[j] = expr.Product(lits...)
		}
		terms[i] = expr.Scale(p.agg, expr.Sum(clauses...), v)
	}
	e := expr.Compare(p.theta, expr.MSum(p.agg, terms...), expr.MConst{V: value.Int(p.c)})
	return goldenCase{name: name, s: algebra.SemiringFor(algebra.Boolean), reg: boolReg(0.5, names...), e: e}
}

// goldenGridCells is the §7.1 grid of bench/expr.go — four monoids, three
// θ, four constants — at parameters small enough for tier-1. Shapes are
// fixed by the cell, as there.
func goldenGridCells() []goldenCase {
	aggs := []algebra.Agg{algebra.Min, algebra.Max, algebra.Count, algebra.Sum}
	thetas := []value.Theta{value.EQ, value.LE, value.GE}
	consts := []int64{30, 80, 130, 180}
	var out []goldenCase
	for ai, agg := range aggs {
		for ti, th := range thetas {
			for ci, c := range consts {
				l := 10 + (ai*5+ti*3+ci*4)%5
				switch agg {
				case algebra.Sum:
					c *= 6
				case algebra.Count:
					c = c * int64(l) / 200
				}
				p := eq11{numVars: 9, clauses: 3, literals: 3, maxV: 200, l: l, agg: agg, theta: th, c: c}
				out = append(out, p.instance(fmt.Sprintf("grid/%s %s c=%d L=%d", agg, th, c, l), int64(1000+len(out))))
			}
		}
	}
	return out
}

func goldenCases() []goldenCase {
	cases := goldenGridCells()
	// More than 64 variables: some interned IDs share a residue mod 64
	// whatever the interner has seen before.
	for i, agg := range []algebra.Agg{algebra.Min, algebra.Sum, algebra.Count} {
		p := eq11{numVars: 70, clauses: 2, literals: 2, maxV: 50, l: 24, agg: agg, theta: value.LE, c: 20}
		cases = append(cases, p.instance(fmt.Sprintf("wide/%s", agg), int64(2000+i)))
	}
	// σ over an aggregate and its product shapes (prune_product_test.go).
	r := rand.New(rand.NewSource(24))
	for trial := 0; trial < 100; trial++ {
		g := randomGuardCase(r, trial%5)
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("guard/%d variant %d over %v", trial, trial%5, g.s.Kind()),
			s:    g.s, reg: g.reg, e: expr.Product(g.factors()...),
		})
	}
	names := []string{"x1", "x2", "x3", "x4", "x5"}
	for _, src := range []string{
		"[x1 + x2 + x3 + x4 + x5 != 0]*[sum(x1 @sum 3, x2 @sum 1, x3 @sum 4, x4 @sum 1, x5 @sum 5) >= 7]",
		"[x1 + x2 + x3 + x4 + x5 != 0]*[sum(x1 @sum 3, x2 @sum 1, x3 @sum 4, x4 @sum 1, x5 @sum 5) <= 7]",
		"[x1 + x2 + x3 != 0]*[min(x1 @min 3, x2 @min 1, x3 @min 4) >= 2]*[max(x1 @max 3, x2 @max 1, x3 @max 4) <= 3]",
		"[x1*x2 + x3 != 0]*[count(x1*x2 @count 1, x3 @count 1) < 2]*(x4 + x5)",
		"x1*x2*x3 + x1*x2*x4 + x1*x5",
		"sum(x1*x2 @sum 3, x1*x3 @sum 4, x1*x4*x5 @sum 5)",
	} {
		for _, kind := range []algebra.SemiringKind{algebra.Boolean, algebra.Natural} {
			for _, o := range []Options{{}, {DisablePruning: true}, {DisableFactoring: true, Order: LeastOccurrences}, {DisableMemo: true, Order: Lexicographic}} {
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("shape/%v %+v %s", kind, o, src),
					s:    algebra.SemiringFor(kind), reg: boolReg(0.5, names...), e: expr.MustParse(src), opts: o,
				})
			}
		}
	}
	return cases
}

// dtreeDigest hashes the d-tree as a DAG in post-order: each distinct node
// is numbered at its first visit and rendered with its kind, its own
// fields and the numbers of its children, so two digests agree exactly
// when the trees agree node for node, sharing included.
func dtreeDigest(root dtree.Node) string {
	h := sha256.New()
	index := map[dtree.Node]int{}
	var walk func(n dtree.Node) int
	walk = func(n dtree.Node) int {
		if i, ok := index[n]; ok {
			return i
		}
		var line string
		switch t := n.(type) {
		case *dtree.VarLeaf:
			line = fmt.Sprintf("var %s", t.Name)
		case *dtree.ConstLeaf:
			line = fmt.Sprintf("const %v module=%v", t.V, t.Module)
		case *dtree.PlusNode:
			line = fmt.Sprintf("plus module=%v agg=%v %d %d", t.Module, t.Agg, walk(t.L), walk(t.R))
		case *dtree.TimesNode:
			line = fmt.Sprintf("times %d %d", walk(t.L), walk(t.R))
		case *dtree.TensorNode:
			line = fmt.Sprintf("tensor agg=%v %d %d", t.Agg, walk(t.Scalar), walk(t.Mod))
		case *dtree.CmpNode:
			cap := "none"
			if t.Cap != nil {
				cap = fmt.Sprintf("above=%v limit=%v", t.Cap.Above, t.Cap.Limit)
			}
			line = fmt.Sprintf("cmp %v cap[%s] %d %d", t.Th, cap, walk(t.L), walk(t.R))
		case *dtree.ExclusiveNode:
			line = fmt.Sprintf("excl %s", t.Var)
			for _, b := range t.Branches {
				line += fmt.Sprintf(" (%v %016x %d)", b.Val, math.Float64bits(b.P), walk(b.Child))
			}
		default:
			panic(fmt.Sprintf("unknown d-tree node %T", n))
		}
		i := len(index)
		index[n] = i
		fmt.Fprintf(h, "%d %s\n", i, line)
		return i
	}
	walk(root)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestDTreeGolden(t *testing.T) {
	path := filepath.Join("testdata", "dtree_golden.json")
	var rows []goldenRow
	for _, c := range goldenCases() {
		res := mustCompile(t, New(c.s, c.reg, c.opts), c.e)
		rows = append(rows, goldenRow{Name: c.name, Stats: res.Stats, Digest: dtreeDigest(res.Root)})
		// Three times more on a lent scratch that does not trust
		// signatures: the walking partition must build the same tree, and
		// so must the same compiler after a first Reset and after a later
		// one (which deletes what the compilation put in the memo), neither
		// leaving a memo hit behind.
		walker := New(c.s, c.reg, c.opts)
		walker.sc = new(scratch)
		for range 3 {
			if res := mustCompile(t, walker, c.e); res.Stats != rows[len(rows)-1].Stats || dtreeDigest(res.Root) != rows[len(rows)-1].Digest {
				t.Errorf("%s: the d-tree depends on whether signatures are exact or on an earlier compilation", c.name)
			}
			walker.Reset()
		}
	}
	if *updateDTreeGolden {
		var buf bytes.Buffer // one case a line
		for i, row := range rows {
			line, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			sep := ",\n"
			if i == 0 {
				sep = "[\n"
			}
			buf.WriteString(sep)
			buf.Write(line)
		}
		buf.WriteString("\n]\n")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRow
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Fatalf("golden has %d cases, this build compiles %d", len(want), len(rows))
	}
	for i, got := range rows {
		if got != want[i] {
			t.Errorf("d-tree changed:\n got %+v\nwant %+v", got, want[i])
		}
	}
}
