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
// those (dtreeref.AssertNaryEqualsBinary).
func TestNaryEqualsBinary(t *testing.T) {
	for _, c := range goldenCases() {
		res := mustCompile(t, New(c.s, c.reg, c.opts), c.e)
		dtreeref.AssertNaryEqualsBinary(t, c.name, res.Root, dtree.Env{Semiring: c.s, Registry: c.reg})
	}
}
