package tractable

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/dtree"
	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
	"pvcagg/internal/worlds"
)

// The contract between Classify and the compiler: a verdict other than
// Hard promises that every result tuple compiles to a polynomial d-tree
// (the paper's Section 6). This file generates one instance family per
// reason string Classify can return with class Qind or Qhie and holds
// each result tuple to
//
//	Shannon expansions ≤ v, one per variable of its annotation and
//	  non-zero value that variable can take (over B: the number of
//	  variables) — and 0 wherever the paper's class promises a
//	  decomposition without ⊔ or the implied-guard rule (compile/prune.go,
//	  rule (a)) applies;
//	d-tree nodes ≤ engine.NodeBound(v), v = engine.Weight — the bound
//	  Auto compiles every tuple under before it falls back to anytime;
//	confidence and aggregate distributions == possible-worlds
//	  enumeration at tolerance 0 (every marginal is dyadic, so every
//	  probability is an exact float whatever the order of summation);
//	compile.ApproximateCtx containing that confidence and closed to a point,
//
// over group sizes n = 1…12, both semirings, and — where the class has an
// aggregate — all five monoids, all six θ and constants below, inside
// and above the aggregate's range. A selection with two comparisons over
// aggregates cannot meet the bound (the compiler has no joint B × M node)
// and must be classified Hard; TestContractHardWhereNotPolynomial pins
// that, and that the bound does fail there.

var contractMonoids = []algebra.Agg{algebra.Sum, algebra.Count, algebra.Min, algebra.Max, algebra.Prod}

var contractThetas = []value.Theta{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE}

// dyadic marginals, dealt round-robin.
var contractMarginals = []float64{0.5, 0.25, 0.75, 0.125, 0.875}

// contractDB holds the families' relations over one registry:
//
//	R(g, k, v)  n rows in group g = 1 (k = 1…n, v dealt from 1…3), and
//	            two more in group g = 2
//	U(g)        one row per group
//
// Every row carries its own variable. Over N the first two variables of
// R take multiplicities {0, 1, 2}, so bag semantics is not Boolean in
// disguise.
func contractDB(kind algebra.SemiringKind, n int) *pvc.Database {
	db := pvc.NewDatabase(kind)
	next := 0
	insert := func(rel *pvc.Relation, cells ...pvc.Cell) {
		p := contractMarginals[next%len(contractMarginals)]
		d := prob.Bernoulli(p)
		if kind == algebra.Natural && rel.Name == "R" && rel.Len() < 2 {
			d = prob.FromPairs([]prob.Pair{{V: value.Int(0), P: 1 - p}, {V: value.Int(1), P: p / 2}, {V: value.Int(2), P: p / 2}})
		}
		next++
		rel.MustInsert(expr.V(db.Registry.Fresh(rel.Name, d)), cells...)
	}
	r := pvc.NewRelation("R", intSchema("g", "k", "v"))
	for i := 0; i < n+2; i++ {
		g := int64(1)
		if i >= n {
			g = 2
		}
		insert(r, pvc.IntCell(g), pvc.IntCell(int64(i+1)), pvc.IntCell(int64(1+(i*2)%3)))
	}
	db.Add(r)
	u := pvc.NewRelation("U", intSchema("g"))
	insert(u, pvc.IntCell(1))
	insert(u, pvc.IntCell(2))
	db.Add(u)
	return db
}

func intSchema(names ...string) pvc.Schema {
	s := make(pvc.Schema, len(names))
	for i, c := range names {
		s[i] = pvc.Col{Name: c, Type: pvc.TValue}
	}
	return s
}

// contractConstants returns constants below, inside and above the range
// of agg over a group of n rows with values in 1…3 and multiplicities up
// to 2.
func contractConstants(agg algebra.Agg, n int) []int64 {
	switch agg {
	case algebra.Sum:
		return []int64{-1, int64(n), int64(6*n + 1)}
	case algebra.Count:
		return []int64{-1, int64((n + 1) / 2), int64(2*n + 1)}
	case algebra.Prod:
		return []int64{0, 2, 1 << 40}
	default: // MIN, MAX
		return []int64{0, 2, 4}
	}
}

func scan(t string) engine.Plan { return &engine.Scan{Table: t} }

func groupR(input engine.Plan, by []string, aggs ...algebra.Agg) *engine.GroupAgg {
	g := &engine.GroupAgg{Input: input, GroupBy: by}
	for i, a := range aggs {
		g.Aggs = append(g.Aggs, engine.AggSpec{Out: fmt.Sprintf("a%d", i), Agg: a, Over: "v"})
	}
	return g
}

// contractFamily is the instances of one Classify reason.
type contractFamily struct {
	reason string // prefix-free part of the verdict's reason
	class  Class
	// plans lists the family's plans for group size n. zeroShannon marks
	// those the paper's class (or rule (a)) promises a ⊔-free d-tree.
	plans func(n int) []contractPlan
}

type contractPlan struct {
	label       string
	plan        engine.Plan
	zeroShannon bool
}

// sigmaPlans is π_g σ_{a0 θ c}($_{g; a0←AGG(v)}(input)) over the whole
// monoid × θ × constant grid.
func sigmaPlans(n int, input func() engine.Plan, what string) []contractPlan {
	var out []contractPlan
	for _, agg := range contractMonoids {
		neutral := algebra.MonoidFor(agg).Neutral()
		for _, th := range contractThetas {
			for _, c := range contractConstants(agg, n) {
				out = append(out, contractPlan{
					label: fmt.Sprintf("%s %v %v %d", what, agg, th, c),
					plan: &engine.Project{Cols: []string{"g"}, Input: &engine.Select{
						Pred:  engine.Where(engine.ColTheta("a0", th, pvc.IntCell(c))),
						Input: groupR(input(), []string{"g"}, agg),
					}},
					// Rule (a) applies exactly when the empty group fails
					// the comparison.
					zeroShannon: !th.Apply(neutral, value.Int(c)),
				})
			}
		}
	}
	return out
}

var contractFamilies = []contractFamily{
	{"is a tuple-independent relation (Def. 8.1)", Ind, func(int) []contractPlan {
		return []contractPlan{{"R", scan("R"), true}}
	}},
	{"join of tuple-independent relations keeping all attributes", Ind, func(int) []contractPlan {
		return []contractPlan{{"R ⋈ U", &engine.Join{L: scan("R"), R: scan("U")}, true}}
	}},
	{"hierarchical with root projection attributes (Def. 8.2b)", Ind, func(int) []contractPlan {
		return []contractPlan{{"π_g(R ⋈ U)", &engine.Project{Cols: []string{"g"}, Input: &engine.Join{L: scan("R"), R: scan("U")}}, true}}
	}},
	{"non-repeating hierarchical query (Def. 9.2)", Hie, func(int) []contractPlan {
		return []contractPlan{{"π_v(R ⋈ U)", &engine.Project{Cols: []string{"v"}, Input: &engine.Join{L: scan("R"), R: scan("U")}}, true}}
	}},
	{"union of tractable sub-queries", Hie, func(int) []contractPlan {
		return []contractPlan{{"π_g(R) ∪ U", &engine.Union{L: &engine.Project{Cols: []string{"g"}, Input: scan("R")}, R: scan("U")}, true}}
	}},
	{"global aggregation over a hierarchical body (Def. 9.1, Ré-Suciu case)", Hie, func(int) []contractPlan {
		return []contractPlan{{"$_∅(R ⋈ U)", groupR(&engine.Join{L: scan("R"), R: scan("U")}, nil, contractMonoids...), true}}
	}},
	{"grouped aggregation over a hierarchical body (Def. 9.1)", Hie, func(int) []contractPlan {
		return []contractPlan{{"$_g(R ⋈ U)", groupR(&engine.Join{L: scan("R"), R: scan("U")}, []string{"g"}, contractMonoids...), true}}
	}},
	{"selection over one aggregated Qind sub-query (Def. 8.2a)", Ind, func(n int) []contractPlan {
		return append(sigmaPlans(n, func() engine.Plan { return scan("R") }, "σ$(R)"),
			sigmaPlans(n, func() engine.Plan { return &engine.Join{L: scan("R"), R: scan("U")} }, "σ$(R ⋈ U)")...)
	}},
}

// contractStats is what one plan's result tuples cost, at worst, and the
// largest weight v among them.
type contractStats struct{ shannon, nodes, weight int }

// checkContract evaluates plan on db and holds every result tuple to the
// contract, reporting violations through fail; it returns the worst
// counts seen.
func checkContract(db *pvc.Database, cp contractPlan, fail func(format string, args ...any)) contractStats {
	rel, _, err := engine.StreamEvalPlan(context.Background(), db, cp.plan)
	if err != nil {
		fail("step I: %v", err)
		return contractStats{}
	}
	if rel.Len() == 0 {
		fail("no result tuples")
	}
	s, reg := db.Semiring(), db.Registry
	var worst contractStats
	for _, tup := range rel.Tuples {
		exprs := []expr.Expr{tup.Ann}
		for _, c := range tup.Cells {
			if c.Kind() == pvc.KindExpr {
				exprs = append(exprs, c.Expr())
			}
		}
		for i, e := range exprs {
			v := engine.Weight(e, reg)
			res, err := compile.New(s, reg, compile.Options{}).CompileCtx(context.Background(), e)
			if err != nil {
				fail("%s: compile: %v", tup.Label(), err)
				continue
			}
			worst.shannon = max(worst.shannon, res.Stats.Shannon)
			worst.nodes = max(worst.nodes, res.Stats.Nodes)
			worst.weight = max(worst.weight, v)
			if res.Stats.Shannon > v || (cp.zeroShannon && res.Stats.Shannon > 0) {
				fail("%s: %d Shannon expansions, bound %d (zero promised: %v), compiling %s",
					tup.Label(), res.Stats.Shannon, v, cp.zeroShannon, expr.Abbrev(e))
			}
			if res.Stats.Nodes > engine.NodeBound(v) {
				fail("%s: %d d-tree nodes, bound %d", tup.Label(), res.Stats.Nodes, engine.NodeBound(v))
			}
			got, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
			if err != nil {
				fail("%s: evaluate: %v", tup.Label(), err)
				continue
			}
			want, err := worlds.Enumerate(e, reg, s)
			if err != nil {
				fail("%s: worlds: %v", tup.Label(), err)
				continue
			}
			if !got.Equal(want, 0) {
				fail("%s: distribution %v, worlds say %v, of %s", tup.Label(), got, want, expr.Abbrev(e))
			}
			if i > 0 {
				continue // aggregate column: a module expression has no confidence
			}
			p := want.TruthProbability()
			b, rep, err := compile.ApproximateCtx(context.Background(), s, reg, e, compile.ApproxOptions{Eps: 0.01})
			if err != nil {
				fail("%s: approximate: %v", tup.Label(), err)
				continue
			}
			if b.Lo != p || b.Hi != p || rep.Expansions > v {
				fail("%s: anytime bounds %v after %d expansions (bound %d), worlds say %v", tup.Label(), b, rep.Expansions, v, p)
			}
		}
	}
	return worst
}

func TestContractTractableIsPolynomial(t *testing.T) {
	for _, fam := range contractFamilies {
		t.Run(fam.reason, func(t *testing.T) {
			var worst contractStats
			for _, kind := range []algebra.SemiringKind{algebra.Boolean, algebra.Natural} {
				for n := 1; n <= 12; n++ {
					db := contractDB(kind, n)
					for _, cp := range fam.plans(n) {
						v := Classify(cp.plan, db)
						if v.Class != fam.class || !strings.HasSuffix(v.Reason, fam.reason) {
							t.Fatalf("%s: classified %v (%s), want %v (%s)", cp.label, v.Class, v.Reason, fam.class, fam.reason)
						}
						st := checkContract(db, cp, func(format string, args ...any) {
							t.Errorf("%v n=%d %s: %s", kind, n, cp.label, fmt.Sprintf(format, args...))
						})
						worst.shannon = max(worst.shannon, st.shannon)
						worst.nodes = max(worst.nodes, st.nodes)
						worst.weight = max(worst.weight, st.weight)
					}
					if t.Failed() {
						return // one group size's worth of failures says it all
					}
				}
			}
			t.Logf("worst tuple: %d Shannon expansions, %d nodes, weight %d", worst.shannon, worst.nodes, worst.weight)
		})
	}
}

// TestContractCoversEveryVerdict keeps the family list honest: every
// Verdict literal in tractable.go with a class other than Hard has a
// family above, so a verdict added later cannot skip the contract.
func TestContractCoversEveryVerdict(t *testing.T) {
	src, err := os.ReadFile("tractable.go")
	if err != nil {
		t.Fatal(err)
	}
	found := regexp.MustCompile(`Verdict\{(?:Ind|Hie), (?:fmt\.Sprintf\()?"(?:%s )?([^"]+)"`).FindAllSubmatch(src, -1)
	if len(found) < 8 {
		t.Fatalf("found %d tractable verdicts in tractable.go, want the 8 known ones or more", len(found))
	}
	for _, m := range found {
		covered := false
		for _, fam := range contractFamilies {
			covered = covered || fam.reason == string(m[1])
		}
		if !covered {
			t.Errorf("no contract family for the verdict %q", m[1])
		}
	}
}

// notPolynomialPlans are selections over one aggregated sub-query whose
// annotation compares aggregates twice — a product of two comparisons, or
// one comparison with an aggregate on either side: the compiler can only
// Shannon-expand such a product world by world.
func notPolynomialPlans(n int) []contractPlan {
	c, d := pvc.IntCell(int64(n)), pvc.IntCell(int64((n+1)/2))
	aggs := func() engine.Plan { return groupR(scan("R"), []string{"g"}, algebra.Sum, algebra.Count) }
	over := func(input engine.Plan, atoms ...engine.Atom) engine.Plan {
		return &engine.Select{Pred: engine.Where(atoms...), Input: input}
	}
	var out []contractPlan
	for label, p := range map[string]engine.Plan{
		"a0 ≥ c ∧ a1 ≤ d":       over(aggs(), engine.ColTheta("a0", value.GE, c), engine.ColTheta("a1", value.LE, d)),
		"a0 ≥ c ∧ a0 ≤ c+2":     over(aggs(), engine.ColTheta("a0", value.GE, c), engine.ColTheta("a0", value.LE, pvc.IntCell(int64(n+2)))),
		"a0 ≥ a1 + …":           over(aggs(), engine.ColThetaCol("a0", value.GE, "a1")),
		"σ_{a1 ≤ d} σ_{a0 ≥ c}": over(over(aggs(), engine.ColTheta("a0", value.GE, c)), engine.ColTheta("a1", value.LE, d)),
		"renamed": over(&engine.Rename{From: "a1", To: "cnt", Input: over(aggs(), engine.ColTheta("a0", value.GE, c))},
			engine.ColTheta("cnt", value.LE, d)),
	} {
		out = append(out, contractPlan{label: label, plan: &engine.Project{Cols: []string{"g"}, Input: p}})
	}
	return out
}

// chainUnion is π∅(A ⋈ S) ∪ π∅(S ⋈ T) over A(a), S(a, b), T(b) with m
// values of a and of b: each branch hierarchical, their union the
// #P-hard chain Σ s_ab·(a_a + t_b).
func chainUnion(m int) (*pvc.Database, contractPlan) {
	db := pvc.NewDatabase(algebra.Boolean)
	rels := map[string]*pvc.Relation{}
	insert := func(name string, cols []string, cells ...pvc.Cell) {
		rel := rels[name]
		if rel == nil {
			rel = pvc.NewRelation(name, intSchema(cols...))
			rels[name] = rel
			db.Add(rel)
		}
		rel.MustInsert(expr.V(db.Registry.Fresh(name, prob.Bernoulli(0.5))), cells...)
	}
	for i := int64(0); i < int64(m); i++ {
		insert("A", []string{"a"}, pvc.IntCell(i))
		insert("T", []string{"b"}, pvc.IntCell(i))
		for j := int64(0); j < int64(m); j++ {
			insert("S", []string{"a", "b"}, pvc.IntCell(i), pvc.IntCell(j))
		}
	}
	return db, contractPlan{label: "π∅(A ⋈ S) ∪ π∅(S ⋈ T)", plan: &engine.Union{
		L: &engine.Project{Input: &engine.Join{L: scan("A"), R: scan("S")}},
		R: &engine.Project{Input: &engine.Join{L: scan("S"), R: scan("T")}},
	}}
}

// TestContractHardWhereNotPolynomial: the verdict is Hard, with a reason
// that says why, exactly where the contract's bound does not hold — so
// Classify never promises what Auto's per-tuple bound may refuse.
func TestContractHardWhereNotPolynomial(t *testing.T) {
	type hardCase struct {
		db  *pvc.Database
		cp  contractPlan
		why string
	}
	var cases []hardCase
	db := contractDB(algebra.Boolean, 10)
	for _, cp := range notPolynomialPlans(10) {
		cases = append(cases, hardCase{db, cp, "joint distribution"})
	}
	udb, ucp := chainUnion(3)
	cases = append(cases, hardCase{udb, ucp, "union branches share S"})
	for _, c := range cases {
		if v := Classify(c.cp.plan, c.db); v.Class != Hard || !strings.Contains(v.Reason, c.why) {
			t.Errorf("%s: classified %v (%s), want hard: %s", c.cp.label, v.Class, v.Reason, c.why)
		}
		if st := checkContract(c.db, c.cp, func(string, ...any) {}); st.shannon <= st.weight {
			t.Errorf("%s: %d Shannon expansions at weight %d meet the bound after all; Classify need not call it hard",
				c.cp.label, st.shannon, st.weight)
		}
	}
}
