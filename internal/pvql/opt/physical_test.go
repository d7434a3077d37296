package opt_test

// The physical build-side pass: with opt.BuildSideThreshold lowered to 1
// it fires on every eligible join, and the commuted plans must answer
// like the naive ones at tolerance 0 (TestOptimizerCommutes holds them to
// possible-worlds semantics as well).

import (
	"context"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/engine"
	"pvcagg/internal/pvc"
	"pvcagg/internal/pvql/opt"
)

// TestStreamingDifferentialForcedBuildSides lowers BuildSideThreshold so
// the physical pass commutes every eligible join, then holds two
// comparisons at tolerance 0: naive vs rewritten (the commute preserves
// answers) and idempotence of the full pipeline.
func TestStreamingDifferentialForcedBuildSides(t *testing.T) {
	defer func(old int64) { opt.BuildSideThreshold = old }(opt.BuildSideThreshold)
	opt.BuildSideThreshold = 1
	optimizerDifferential(t, 9000, 60)
}

// TestBuildSidePass pins the plan shape: a join whose left input has a
// smaller row bound than its right commutes — the smaller side moves to
// the build (right) position — and a π̂ restores the column order.
func TestBuildSidePass(t *testing.T) {
	db := pvc.NewDatabase(algebra.Boolean)
	small := pvc.NewRelation("SM", pvc.Schema{
		{Name: "a", Type: pvc.TValue},
		{Name: "x", Type: pvc.TValue},
	})
	for i := 0; i < 5; i++ {
		if _, err := db.InsertIndependent(small, 0.5, pvc.IntCell(int64(i%3)), pvc.IntCell(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	db.Add(small)
	big := pvc.NewRelation("BG", pvc.Schema{
		{Name: "a", Type: pvc.TValue},
		{Name: "y", Type: pvc.TValue},
	})
	for i := 0; i < 100; i++ {
		if _, err := db.InsertIndependent(big, 0.5, pvc.IntCell(int64(i%3)), pvc.IntCell(int64(i%4))); err != nil {
			t.Fatal(err)
		}
	}
	db.Add(big)

	naive := &engine.Join{L: &engine.Scan{Table: "SM"}, R: &engine.Scan{Table: "BG"}}
	optimized := opt.Optimize(naive, db)
	rendered := optimized.String()
	if !strings.Contains(rendered, "BG ⋈ SM") {
		t.Fatalf("build-side pass did not move the smaller input to the build side: %s", rendered)
	}
	if !strings.Contains(rendered, "π̂") {
		t.Fatalf("commuted join is missing the column-order-restoring π̂: %s", rendered)
	}
	compareBitForBit(t, context.Background(), db, "SM⋈BG", 0, naive, optimized)
	// Idempotent: a second optimization must not flip the join back.
	again := opt.Optimize(optimized, db)
	compareBitForBit(t, context.Background(), db, "SM⋈BG twice", 0, naive, again)
}
