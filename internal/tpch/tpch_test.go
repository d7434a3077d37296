package tpch

import (
	"context"
	"math"
	"testing"
	"time"

	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

const testSF = 0.0005 // lineitem ≈ 3000 rows, partsupp ≈ 400

// run chains the two evaluation steps the way queries do: step I through
// StreamEvalPlan, step II exactly on one goroutine.
func run(t *testing.T, db *pvc.Database, plan engine.Plan) (*pvc.Relation, []engine.TupleOutcome, engine.RunTiming) {
	t.Helper()
	ctx := context.Background()
	rel, construct, err := engine.StreamEvalPlan(ctx, db, plan)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	outs, err := engine.Outcomes(ctx, db, rel, engine.ExecConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rel, outs, engine.RunTiming{Construct: construct, Probability: time.Since(t0)}
}

func TestGenerateCardinalities(t *testing.T) {
	db, err := Generate(Config{SF: testSF, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	expect := map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": scaled(cardSupplier, testSF),
		"part":     scaled(cardPart, testSF),
		"customer": scaled(cardCustomer, testSF),
		"orders":   scaled(cardOrders, testSF),
		"lineitem": scaled(cardLineitem, testSF),
	}
	for name, want := range expect {
		rel, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != want {
			t.Errorf("%s has %d rows, want %d", name, rel.Len(), want)
		}
	}
	ps, _ := db.Relation("partsupp")
	if ps.Len() < scaled(cardPart, testSF) {
		t.Errorf("partsupp has %d rows, want at least one per part", ps.Len())
	}
	if db.Registry.Len() != 0 {
		t.Errorf("deterministic database declared %d variables", db.Registry.Len())
	}
}

func TestGenerateDeterministicSeed(t *testing.T) {
	a, _ := Generate(Config{SF: testSF, Seed: 7})
	b, _ := Generate(Config{SF: testSF, Seed: 7})
	ra, _ := a.Relation("lineitem")
	rb, _ := b.Relation("lineitem")
	for i := range ra.Tuples {
		if ra.Tuples[i].Key() != rb.Tuples[i].Key() {
			t.Fatalf("row %d differs across identical seeds", i)
		}
	}
}

func TestGenerateProbabilistic(t *testing.T) {
	db, err := Generate(Config{SF: testSF, Seed: 1, Probabilistic: true, TupleProb: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	li, _ := db.Relation("lineitem")
	ps, _ := db.Relation("partsupp")
	if db.Registry.Len() != li.Len()+ps.Len() {
		t.Errorf("registry has %d variables, want %d", db.Registry.Len(), li.Len()+ps.Len())
	}
	// Every lineitem annotation is a distinct variable.
	seen := map[string]bool{}
	for _, tup := range li.Tuples {
		v, ok := tup.Ann.(expr.Var)
		if !ok {
			t.Fatalf("lineitem annotation %s is not a variable", expr.String(tup.Ann))
		}
		if seen[v.Name] {
			t.Fatalf("variable %s reused", v.Name)
		}
		seen[v.Name] = true
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Config{SF: 0}); err == nil {
		t.Errorf("zero scale factor accepted")
	}
	if _, err := Generate(Config{SF: 1, TupleProb: 2}); err == nil {
		t.Errorf("bad tuple probability accepted")
	}
}

func TestQ1Deterministic(t *testing.T) {
	db, err := Generate(Config{SF: testSF, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := engine.StreamEvalPlan(context.Background(), db, Q1(2000))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 || rel.Len() > 6 {
		t.Fatalf("Q1 produced %d groups, want 1..6", rel.Len())
	}
	// Counts must match a direct scan.
	li, _ := db.Relation("lineitem")
	wantCounts := map[string]int64{}
	for _, tup := range li.Tuples {
		if tup.Cells[6].Value().Int64() <= 2000 {
			wantCounts[tup.Cells[4].Str()+"|"+tup.Cells[5].Str()]++
		}
	}
	for _, tup := range rel.Tuples {
		key := tup.Cells[0].Str() + "|" + tup.Cells[1].Str()
		cnt := tup.Cells[2].Expr()
		mc, ok := cnt.(expr.MConst)
		if !ok {
			t.Fatalf("deterministic COUNT is not constant: %s", expr.String(cnt))
		}
		if mc.V != value.Int(wantCounts[key]) {
			t.Errorf("group %s count = %v, want %d", key, mc.V, wantCounts[key])
		}
	}
}

func TestQ1Probabilistic(t *testing.T) {
	db, err := Generate(Config{SF: 0.0002, Seed: 3, Probabilistic: true, TupleProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rel, results, timing := run(t, db, Q1(1200))
	if rel.Len() == 0 {
		t.Fatalf("Q1 empty")
	}
	li, _ := db.Relation("lineitem")
	for i, r := range results {
		key := r.Tuple.Cells[0].Str() + "|" + r.Tuple.Cells[1].Str()
		n := 0
		for _, tup := range li.Tuples {
			if tup.Cells[6].Value().Int64() <= 1200 && tup.Cells[4].Str()+"|"+tup.Cells[5].Str() == key {
				n++
			}
		}
		// The COUNT distribution is Binomial(n, 0.5).
		d := r.AggDists[0]
		if d.Size() != n+1 {
			t.Errorf("group %d: distribution size %d, want %d", i, d.Size(), n+1)
		}
		if got := d.Expectation(); math.Abs(got-float64(n)/2) > 1e-6 {
			t.Errorf("group %d: E[count] = %v, want %v", i, got, float64(n)/2)
		}
		wantConf := 1 - math.Pow(0.5, float64(n))
		if math.Abs(r.Confidence.Lo-wantConf) > 1e-9 {
			t.Errorf("group %d: confidence %v, want %v", i, r.Confidence.Lo, wantConf)
		}
	}
	if timing.Construct <= 0 || timing.Probability <= 0 {
		t.Errorf("timings not collected: %+v", timing)
	}
}

func TestQ2Deterministic(t *testing.T) {
	db, err := Generate(Config{SF: 0.002, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	partKey, region := pickQ2Params(t, db)
	rel, _, err := engine.StreamEvalPlan(context.Background(), db, Q2(partKey, region))
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() == 0 {
		t.Fatalf("Q2 empty for part %d region %s", partKey, region)
	}
	// Verify against a direct computation of the minimum-cost suppliers.
	names := q2BruteForce(t, db, partKey, region)
	if rel.Len() != len(names) {
		t.Fatalf("Q2 returned %d suppliers, want %d", rel.Len(), len(names))
	}
	for _, tup := range rel.Tuples {
		if !names[tup.Cells[0].Str()] {
			t.Errorf("unexpected supplier %s", tup.Cells[0].Str())
		}
	}
}

func TestQ2Probabilistic(t *testing.T) {
	db, err := Generate(Config{SF: 0.002, Seed: 5, Probabilistic: true, TupleProb: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	partKey, region := pickQ2Params(t, db)
	rel, results, _ := run(t, db, Q2(partKey, region))
	if rel.Len() == 0 {
		t.Skipf("no candidate suppliers for part %d in %s", partKey, region)
	}
	total := 0.0
	for _, r := range results {
		if r.Confidence.Lo < 0 || r.Confidence.Hi > 1 {
			t.Errorf("confidence %v out of range", r.Confidence)
		}
		total += r.Confidence.Lo
	}
	if total <= 0 {
		t.Errorf("all Q2 answers have zero probability")
	}
}

// pickQ2Params finds a part and region for which the deterministic Q2
// answer is non-empty, so the nested MIN is non-trivial.
func pickQ2Params(t *testing.T, db *pvc.Database) (int64, string) {
	t.Helper()
	part, _ := db.Relation("part")
	for key := int64(1); key <= int64(part.Len()); key++ {
		for _, region := range regions {
			if len(q2BruteForce(t, db, key, region)) > 0 {
				return key, region
			}
		}
	}
	t.Skip("no part with a minimum-cost supplier at this scale")
	return 0, ""
}

// q2BruteForce computes the deterministic Q2 answer directly.
func q2BruteForce(t *testing.T, db *pvc.Database, partKey int64, region string) map[string]bool {
	t.Helper()
	supplier, _ := db.Relation("supplier")
	nations, _ := db.Relation("nation")
	regions, _ := db.Relation("region")
	ps, _ := db.Relation("partsupp")

	regionKey := int64(-1)
	for _, r := range regions.Tuples {
		if r.Cells[1].Str() == region {
			regionKey = r.Cells[0].Value().Int64()
		}
	}
	nationInRegion := map[int64]bool{}
	for _, n := range nations.Tuples {
		if n.Cells[2].Value().Int64() == regionKey {
			nationInRegion[n.Cells[0].Value().Int64()] = true
		}
	}
	suppOK := map[int64]string{}
	for _, s := range supplier.Tuples {
		if nationInRegion[s.Cells[2].Value().Int64()] {
			suppOK[s.Cells[0].Value().Int64()] = s.Cells[1].Str()
		}
	}
	minCost := int64(math.MaxInt64)
	for _, tup := range ps.Tuples {
		if tup.Cells[0].Value().Int64() != partKey {
			continue
		}
		if _, ok := suppOK[tup.Cells[1].Value().Int64()]; !ok {
			continue
		}
		if c := tup.Cells[2].Value().Int64(); c < minCost {
			minCost = c
		}
	}
	names := map[string]bool{}
	for _, tup := range ps.Tuples {
		if tup.Cells[0].Value().Int64() != partKey {
			continue
		}
		name, ok := suppOK[tup.Cells[1].Value().Int64()]
		if ok && tup.Cells[2].Value().Int64() == minCost {
			names[name] = true
		}
	}
	return names
}
