package gen

import (
	"context"
	"strings"
	"testing"

	"pvcagg/internal/engine"
)

func TestNewDBDeterministic(t *testing.T) {
	a := MustNewDB(DBParams{Seed: 5})
	b := MustNewDB(DBParams{Seed: 5})
	if a.Plan.String() != b.Plan.String() {
		t.Fatalf("plans differ for one seed: %s vs %s", a.Plan, b.Plan)
	}
	ra, _, err := engine.StreamEvalPlan(context.Background(), a.DB, a.Plan)
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := engine.StreamEvalPlan(context.Background(), b.DB, b.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if ra.String() != rb.String() {
		t.Fatalf("results differ for one seed:\n%s\nvs\n%s", ra, rb)
	}
}

func TestNewDBCoverage(t *testing.T) {
	shapes := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		inst := MustNewDB(DBParams{Seed: seed})
		if _, _, err := engine.StreamEvalPlan(context.Background(), inst.DB, inst.Plan); err != nil {
			t.Fatalf("seed %d: plan %s: %v", seed, inst.Plan, err)
		}
		s := inst.Plan.String()
		switch {
		case strings.Contains(s, "⋈"):
			shapes["join"]++
		case strings.Contains(s, "∪"):
			shapes["union"]++
		default:
			shapes["other"]++
		}
	}
	if shapes["join"] == 0 || shapes["union"] == 0 {
		t.Fatalf("generator never produced joins or unions: %v", shapes)
	}
}

func TestNewDBValidates(t *testing.T) {
	if _, err := NewDB(DBParams{VarProb: 2}); err == nil {
		t.Fatal("expected error for out-of-range probability")
	}
	if _, err := NewDB(DBParams{Tuples: -1}); err == nil {
		t.Fatal("expected error for negative tuple count")
	}
}

func TestDemo(t *testing.T) {
	shop, err := Demo("shop", 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(shop.Names(), ","), strings.Join(Figure1(0.5).Names(), ","); got != want {
		t.Fatalf("Demo(shop) tables %s, want the Figure 1 tables %s", got, want)
	}
	tp, err := Demo("tpch", 0, 0.0005)
	if err != nil || len(tp.Names()) == 0 {
		t.Fatalf("Demo(tpch) err = %v, want generated tables", err)
	}
	if _, err := Demo("foo", 0.5, 0.001); err == nil || !strings.Contains(err.Error(), "unknown demo") {
		t.Fatalf("Demo(foo) err = %v, want unknown demo", err)
	}
}
