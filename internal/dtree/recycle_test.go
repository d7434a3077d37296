package dtree_test

import (
	"fmt"
	"math"
	"testing"

	"pvcagg/internal/dtree"
	"pvcagg/internal/prob"
)

// TestRecycledInnerSumsUnderPoison: on the sparse independent sum the
// evaluator convolves the parts of its one ⊕ in their pairing and
// recycles every inner sum. With recycled arrays poisoned, three
// evaluations — the second and third built from the arrays the one before
// gave back — equal, bit for bit, what an Evaluator that keeps everything
// (and so recycles nothing) computes in the same pairwise order.
func TestRecycledInnerSumsUnderPoison(t *testing.T) {
	prob.PoisonRecycledForTest(t)
	for _, n := range []int{5, 16} {
		root, env := independentSum(t, n, sparse)
		want, err := dtree.NewEvaluator(env).Evaluate(root)
		if err != nil {
			t.Fatal(err)
		}
		for i := range 3 {
			got, _, err := dtree.Evaluate(root, env)
			if err != nil {
				t.Fatal(err)
			}
			if !sameDist(got, want, 0) || hasNaN(got) {
				t.Fatalf("%s: evaluation %d gives %v, the keeping evaluator %v", fmt.Sprintf("sparse n=%d", n), i, got, want)
			}
		}
	}
}

func hasNaN(d prob.Dist) bool {
	for _, p := range d.Pairs() {
		if math.IsNaN(p.P) {
			return true
		}
	}
	return false
}
