package engine_test

import (
	"context"
	"fmt"
	"testing"

	"pvcagg/internal/compile"
	"pvcagg/internal/engine"
	"pvcagg/internal/gen"
	"pvcagg/internal/pvc"
)

// TestAnytimeOnPooledCompilers: under Auto with a budget of 10 nodes, a
// worker compiles some annotations exactly and runs the others anytime
// after their exact attempt ran out, each run on a compiler of the one
// pool, which the exact compilations Reset and give back. Every anytime
// tuple's bounds and ApproxReport — ExactNodes and WastedNodes included —
// equal a lone compile.ApproximateCtx of its annotation, at parallelism 1
// and 4, twice over. MaxLeafNodes is tiny so that the runs expand, resume
// and waste nodes. The aggregation columns, which compile under the same
// budget, are left out.
func TestAnytimeOnPooledCompilers(t *testing.T) {
	ctx := context.Background()
	opts := compile.ApproxOptions{Eps: 0.05, MaxLeafNodes: 8}
	type run struct {
		b   compile.Bounds
		rep compile.ApproxReport
	}
	var anytime, exact, expansions, wasted int
	for seed := int64(1); seed <= 60; seed++ {
		inst := gen.MustNewDB(gen.DBParams{Seed: seed})
		rel := &pvc.Relation{}
		for _, tup := range evalPlan(t, inst.DB, inst.Plan).Tuples {
			rel.Tuples = append(rel.Tuples, pvc.Tuple{Ann: tup.Ann})
		}
		var want []*run // per tuple; nil for a tuple computed exactly
		for _, par := range []int{1, 4, 1, 4} {
			outs, err := engine.Outcomes(ctx, inst.DB, rel, engine.ExecConfig{
				Parallelism: par, Auto: true, Approx: &opts, Compile: compile.Options{MaxNodes: 10},
			})
			if err != nil {
				t.Fatalf("seed %d parallelism %d: %v", seed, par, err)
			}
			if want == nil {
				want = make([]*run, len(outs))
				for i, o := range outs {
					if o.Report.Approx == nil {
						exact++
						continue
					}
					b, rep, err := compile.ApproximateCtx(ctx, inst.DB.Semiring(), inst.DB.Registry, o.Tuple.Ann, opts)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = &run{b, rep}
					anytime++
					expansions += rep.Expansions
					wasted += rep.WastedNodes
				}
			}
			for i, o := range outs {
				label := fmt.Sprintf("seed %d parallelism %d tuple %d", seed, par, i)
				switch w := want[i]; {
				case (o.Report.Approx == nil) != (w == nil):
					t.Fatalf("%s: routed anytime %v, the first time %v", label, o.Report.Approx != nil, w != nil)
				case w != nil && (o.Confidence != w.b || *o.Report.Approx != w.rep):
					t.Errorf("%s: %v %+v, alone %v %+v", label, o.Confidence, *o.Report.Approx, w.b, w.rep)
				}
			}
		}
	}
	t.Logf("%d anytime tuples (%d expansions, %d wasted nodes), %d exact", anytime, expansions, wasted, exact)
	if anytime < 10 || exact < 10 || expansions == 0 || wasted == 0 {
		t.Fatalf("%d anytime tuples (%d expansions, %d wasted nodes), %d exact: the test needs all four", anytime, expansions, wasted, exact)
	}
}
