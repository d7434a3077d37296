package expr

import (
	"errors"
	"strings"
	"testing"
)

// TestParseDepthLimit: a million nested parentheses used to be a fatal
// stack overflow (not a panic, so nothing could recover it); now every
// way of nesting stops at maxParseDepth with ErrTooDeep.
func TestParseDepthLimit(t *testing.T) {
	nest := func(open, close string, n int) string {
		return strings.Repeat(open, n) + "x" + strings.Repeat(close, n)
	}
	for _, c := range []struct {
		name string
		in   string
		deep bool
	}{
		{"parens at the limit", nest("(", ")", maxParseDepth), false},
		{"parens one past", nest("(", ")", maxParseDepth+1), true},
		{"a million parens", nest("(", ")", 1_000_000), true},
		{"a million parens, unclosed", strings.Repeat("(", 1_000_000), true},
		{"brackets", nest("[", " != 0]", maxParseDepth+1), true},
		{"aggregation calls", nest("min(", " @min 1)", maxParseDepth+1), true},
		{"sums that nest", nest("(x + ", ")", maxParseDepth+1), true},
		{"long and flat", "x" + strings.Repeat(" + x*(y)", 100_000), false},
	} {
		e, err := Parse(c.in)
		switch {
		case c.deep && !errors.Is(err, ErrTooDeep):
			t.Errorf("%s: error %v, want ErrTooDeep", c.name, err)
		case c.deep && len(err.Error()) > 200:
			t.Errorf("%s: error of %d bytes echoes the input", c.name, len(err.Error()))
		case !c.deep && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case !c.deep && e == nil:
			t.Errorf("%s: no expression", c.name)
		}
	}
}

// FuzzParseExpr holds Parse to its contract on arbitrary bytes — the
// parser reads store annotation records and caller-supplied text: it
// never panics and never overflows the stack; ErrTooDeep is returned only
// for input that does nest past the limit; and an accepted expression
// round-trips through its canonical rendering. Run by the fuzz-smoke CI
// job; grow the corpus with `go test -fuzz FuzzParseExpr ./internal/expr`.
func FuzzParseExpr(f *testing.F) {
	for _, seed := range []string{
		"x1*y11*(z1 + z5)",
		"x*y @min 5",
		"min(x*y @min 5, (x+z) @min 10)",
		"[min(x @min 5, y @min 7) <= 6]",
		"[x1*y11 + x2 != 0]",
		"[sum(x*y @sum 2, (x + z) @count 1) = max(z @max m:-inf, x @max 1)]",
		"[[x <= y] + true >= [y*z != 0]]*prod(x @prod 2)",
		"((((((((x))))))))",
		"[m:+inf > count(x @count 1)]",
		"x +",
		"min(x, y)",
		strings.Repeat("(", maxParseDepth+2) + "x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			if errors.Is(err, ErrTooDeep) && strings.Count(src, "(")+strings.Count(src, "[") <= maxParseDepth {
				t.Fatalf("ErrTooDeep for input with too few delimiters to nest that deep: %v", err)
			}
			return
		}
		s := String(e)
		e2, err := Parse(s)
		if err != nil {
			// The rendering spends one delimiter pair per composite node;
			// input that leaned on precedence may have nested less.
			if !errors.Is(err, ErrTooDeep) {
				t.Fatalf("Parse(%q) succeeded, its rendering %q does not parse: %v", src, s, err)
			}
			return
		}
		if !Equal(e, e2) || String(e2) != s {
			t.Fatalf("round trip of %q: %q, then %q", src, s, String(e2))
		}
	})
}
