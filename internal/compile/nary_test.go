package compile

import (
	"testing"

	"pvcagg/internal/dtree"
	"pvcagg/internal/testutil/dtreeref"
)

// TestNaryEqualsBinary holds every d-tree of the golden set, the §7.1
// grid among them, to its binary form: a ⊕ of k parts evaluates, counts
// and measures as the k−1 binary ⊕ nodes that pair its parts level by
// level, and the evaluator folds exactly the sums it would fold over
// those (dtreeref.AssertNaryEqualsBinary, which poisons recycled
// distributions). The trees compile on one compiler, rebound — and so
// Reset, its nodes poisoned — before each, so every tree is carved from
// the slabs of the one before: a field the compiler failed to write
// would show.
func TestNaryEqualsBinary(t *testing.T) {
	PoisonResetForTest(t)
	c := New(nil, nil, Options{})
	for _, gc := range goldenCases() {
		c.Rebind(gc.s, gc.reg, gc.opts)
		res := mustCompile(t, c, gc.e)
		dtreeref.AssertNaryEqualsBinary(t, gc.name, res.Root, dtree.Env{Semiring: gc.s, Registry: gc.reg})
	}
}
