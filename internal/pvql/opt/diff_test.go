package opt_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/engine"
	"pvcagg/internal/pvc"
	"pvcagg/internal/pvc/pvctest"
	"pvcagg/internal/pvql"
	"pvcagg/internal/pvql/bind"
	"pvcagg/internal/pvql/opt"
)

// This file is the optimizer's differential acceptance suite: ≥100
// random PVQL queries over random databases, lowered naively and through
// the optimizer, both executed on the exact engine and compared
// bit-for-bit at tolerance 0. Every tuple marginal is 1/2, so all world
// probabilities are dyadic rationals that float64 arithmetic computes
// exactly in any association order — reassociating rewrites (join
// reordering) are held to the same zero tolerance as the
// expression-preserving ones. TestOptimizerCommutes then holds both
// lowerings of every template, and the physically commuted one, to the
// possible-worlds semantics of step I.

// diffDB builds a random database: R(a, b), S(a, c), T(a, b) and the
// disconnected W(d, e), with random sizes (at most maxRows each) and
// values, every tuple independent at probability 1/2.
func diffDB(rng *rand.Rand, maxRows int) *pvc.Database {
	db := pvc.NewDatabase(algebra.Boolean)
	add := func(name, col1, col2 string, n int) {
		rel := pvc.NewRelation(name, pvc.Schema{
			{Name: col1, Type: pvc.TValue},
			{Name: col2, Type: pvc.TValue},
		})
		for i := 0; i < min(n, maxRows); i++ {
			if _, err := db.InsertIndependent(rel, 0.5,
				pvc.IntCell(rng.Int63n(3)), pvc.IntCell(rng.Int63n(8))); err != nil {
				panic(err)
			}
		}
		db.Add(rel)
	}
	add("R", "a", "b", 2+rng.Intn(4))
	add("S", "a", "c", 2+rng.Intn(3))
	add("T", "a", "b", 2+rng.Intn(4))
	add("W", "d", "e", 1+rng.Intn(2))
	return db
}

// diffRows is diffDB's size cap that caps nothing: tables of up to five
// rows, too many worlds to enumerate but not to compile.
const diffRows = 5

// queryTemplates is the number of templates templateQuery knows.
const queryTemplates = 12

// randQuery produces one random PVQL query string from a random
// template.
func randQuery(rng *rand.Rand) string { return templateQuery(rng, rng.Intn(queryTemplates)) }

// templateQuery fills in template tmpl at random. Templates cover every
// optimizer rewrite: filter pushdown through joins, products, unions,
// grouping and renames; Product+Select→Join fusion; join reordering;
// projection and aggregate pruning; and σ over aggregation columns.
func templateQuery(rng *rand.Rand, tmpl int) string {
	thetas := []string{"=", "!=", "<=", ">=", "<", ">"}
	aggs := []string{"SUM", "MIN", "MAX", "COUNT"}
	th := func() string { return thetas[rng.Intn(len(thetas))] }
	k := func() int64 { return rng.Int63n(9) }
	agg := func() string { return aggs[rng.Intn(len(aggs))] }
	aggCall := func() string {
		a := agg()
		if a == "COUNT" {
			return "COUNT(*)"
		}
		return a + "(b)"
	}
	inner := func() string {
		switch rng.Intn(4) {
		case 0:
			return "R"
		case 1:
			return "R JOIN S"
		case 2:
			return "(SELECT * FROM R UNION SELECT * FROM T)"
		default:
			return fmt.Sprintf("(SELECT * FROM R WHERE b %s %d)", th(), k())
		}
	}
	switch tmpl {
	case 0:
		return fmt.Sprintf("SELECT * FROM R WHERE b %s %d", th(), k())
	case 1:
		return fmt.Sprintf("SELECT b FROM R WHERE a %s %d", th(), k())
	case 2:
		return fmt.Sprintf("SELECT a, b, c FROM R JOIN S WHERE b %s %d AND c %s %d", th(), k(), th(), k())
	case 3:
		return fmt.Sprintf("SELECT * FROM R JOIN S JOIN T WHERE b %s %d", th(), k())
	case 4:
		return fmt.Sprintf("SELECT * FROM R UNION SELECT * FROM T WHERE b %s %d", th(), k())
	case 5:
		return fmt.Sprintf("SELECT a, %s AS X FROM %s GROUP BY a", aggCall(), inner())
	case 6:
		return fmt.Sprintf("SELECT a FROM (SELECT a, %s AS X FROM %s GROUP BY a) WHERE X %s %d",
			aggCall(), inner(), th(), k())
	case 7:
		return fmt.Sprintf("SELECT a, X FROM (SELECT a, %s AS X FROM %s WHERE a %s %d GROUP BY a) WHERE X %s %d",
			aggCall(), inner(), th(), k(), th(), k())
	case 8:
		// Cross product with a fusable equality; a2 is dead above.
		return fmt.Sprintf("SELECT a, b, c FROM R, (SELECT a AS a2, c FROM S) WHERE a = a2 AND c %s %d", th(), k())
	case 9:
		return fmt.Sprintf("SELECT %s AS total FROM R WHERE b %s %d", aggCall(), th(), k())
	case 10:
		// Disconnected product: no fusion, pushdown on both sides.
		return fmt.Sprintf("SELECT a, d FROM R, W WHERE b %s %d AND e %s %d", th(), k(), th(), k())
	case 11:
		return fmt.Sprintf("SELECT a FROM (SELECT a, AVG(b) AS v FROM R GROUP BY a) WHERE v_sum %s %d", th(), k())
	}
	panic("unreachable")
}

// naivePlan parses and binds one generated query: its naive lowering.
func naivePlan(t *testing.T, seed int64, db *pvc.Database, src string) engine.Plan {
	t.Helper()
	q, err := pvql.Parse(src)
	if err != nil {
		t.Fatalf("seed %d: Parse(%q): %v", seed, src, err)
	}
	naive, err := bind.Bind(db, q)
	if err != nil {
		t.Fatalf("seed %d: Bind(%q): %v", seed, src, err)
	}
	return naive
}

func TestOptimizerDifferential(t *testing.T) { optimizerDifferential(t, 0, 120) }

// optimizerDifferential compares naive and optimized lowerings of the
// queries generated from seeds first, first+1, …
func optimizerDifferential(t *testing.T, first, queries int64) {
	ctx := context.Background()
	for seed := first; seed < first+queries; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := diffDB(rng, diffRows)
		src := randQuery(rng)
		naive := naivePlan(t, seed, db, src)
		optimized := opt.Optimize(naive, db)
		compareBitForBit(t, ctx, db, src, seed, naive, optimized)
		// The optimizer must be idempotent-safe: optimizing its own output
		// keeps the answers identical too.
		compareBitForBit(t, ctx, db, src, seed, naive, opt.Optimize(optimized, db))
	}
}

func compareBitForBit(t *testing.T, ctx context.Context, db *pvc.Database, src string, seed int64, naive, optimized engine.Plan) {
	t.Helper()
	relN, _, err := engine.StreamEvalPlan(ctx, db, naive)
	if err != nil {
		t.Fatalf("seed %d: %q: naive eval: %v", seed, src, err)
	}
	relO, _, err := engine.StreamEvalPlan(ctx, db, optimized)
	if err != nil {
		t.Fatalf("seed %d: %q: optimized eval of %s: %v", seed, src, optimized, err)
	}
	if !relN.Schema.Equal(relO.Schema) {
		t.Fatalf("seed %d: %q: schemas differ: %v vs %v\nopt: %s",
			seed, src, relN.Schema.Names(), relO.Schema.Names(), optimized)
	}
	if relN.Len() != relO.Len() {
		t.Fatalf("seed %d: %q: %d vs %d rows\nnaive: %s\nopt:   %s",
			seed, src, relN.Len(), relO.Len(), naive, optimized)
	}
	cfg := engine.ExecConfig{Parallelism: 1}
	outN, err := engine.Outcomes(ctx, db, relN, cfg)
	if err != nil {
		t.Fatalf("seed %d: %q: naive outcomes: %v", seed, src, err)
	}
	outO, err := engine.Outcomes(ctx, db, relO, cfg)
	if err != nil {
		t.Fatalf("seed %d: %q: optimized outcomes: %v", seed, src, err)
	}
	for i := range outN {
		if ck := constCells(outN[i].Tuple, relN.Schema); ck != constCells(outO[i].Tuple, relO.Schema) {
			t.Fatalf("seed %d: %q: tuple %d cells differ: %q vs %q",
				seed, src, i, ck, constCells(outO[i].Tuple, relO.Schema))
		}
		// Tolerance 0: exact float equality on confidences…
		if outN[i].Confidence != outO[i].Confidence {
			t.Fatalf("seed %d: %q: tuple %d confidence %v vs %v\nnaive: %s\nopt:   %s",
				seed, src, i, outN[i].Confidence, outO[i].Confidence, naive, optimized)
		}
		// …and on every aggregation distribution.
		if len(outN[i].AggDists) != len(outO[i].AggDists) {
			t.Fatalf("seed %d: %q: tuple %d aggregate count differs", seed, src, i)
		}
		for j := range outN[i].AggDists {
			if !outN[i].AggDists[j].Equal(outO[i].AggDists[j], 0) {
				t.Fatalf("seed %d: %q: tuple %d aggregate %d: %v vs %v\nnaive: %s\nopt:   %s",
					seed, src, i, j, outN[i].AggDists[j], outO[i].AggDists[j], naive, optimized)
			}
		}
	}
}

// TestOptimizerCommutes holds step I to the paper's semantics on what the
// optimizer emits: every template, lowered naively, optimized, and
// optimized with the build-side pass forced onto every eligible join,
// must evaluate in each possible world to what its symbolic result says
// (pvctest.CheckCommutes) — over tables of at most three rows, 2¹¹
// worlds.
func TestOptimizerCommutes(t *testing.T) {
	if testing.Short() {
		t.Skip("world enumeration is slow in -short mode")
	}
	ctx := context.Background()
	for tmpl := 0; tmpl < queryTemplates; tmpl++ {
		for rep := int64(0); rep < 4; rep++ {
			seed := 7000 + 10*int64(tmpl) + rep
			rng := rand.New(rand.NewSource(seed))
			db := diffDB(rng, 3)
			src := templateQuery(rng, tmpl)
			naive := naivePlan(t, seed, db, src)
			optimized := opt.Optimize(naive, db)
			old := opt.BuildSideThreshold
			opt.BuildSideThreshold = 1
			commuted := opt.Optimize(naive, db)
			opt.BuildSideThreshold = old
			for i, plan := range []engine.Plan{naive, optimized, commuted} {
				name := []string{"naive", "optimized", "commuted"}[i]
				t.Run(fmt.Sprintf("template%02d/seed%d/%s", tmpl, seed, name), func(t *testing.T) {
					t.Logf("%s\n%s", src, plan)
					pvctest.CheckCommutes(t, db, func(d *pvc.Database) (*pvc.Relation, error) {
						rel, _, err := engine.StreamEvalPlan(ctx, d, plan)
						return rel, err
					})
				})
			}
		}
	}
}

func constCells(tp pvc.Tuple, schema pvc.Schema) string {
	var b strings.Builder
	for i, c := range tp.Cells {
		if schema[i].Type == pvc.TModule {
			continue
		}
		b.WriteString(c.Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// TestPlanStringRoundTrip pins the algebra rendering to the pvql
// grammar: every naive and optimizer-produced plan re-parses through
// ParsePlan into a plan with the identical rendering (the printable
// subset documented on ParsePlan covers everything the binder and
// optimizer emit).
func TestPlanStringRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := diffDB(rng, diffRows)
		naive := naivePlan(t, seed, db, randQuery(rng))
		for _, plan := range []engine.Plan{naive, opt.Optimize(naive, db)} {
			s := plan.String()
			rt, err := pvql.ParsePlan(s)
			if err != nil {
				t.Fatalf("seed %d: ParsePlan(%q): %v", seed, s, err)
			}
			if rt.String() != s {
				t.Fatalf("seed %d: round trip drift:\n in  %s\n out %s", seed, s, rt.String())
			}
		}
	}
}
