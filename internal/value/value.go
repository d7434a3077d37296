// Package value defines the carrier values used by the semirings, monoids
// and semimodules in this library.
//
// The paper works with countable carriers: the Booleans B (embedded as
// {0, 1}), the natural numbers N, and the extended naturals N±∞ used by the
// MIN and MAX monoids, whose neutral elements are +∞ and −∞ respectively.
// A V is an exact integer extended with positive and negative infinity, so
// neutral elements are first-class values rather than integer sentinels.
package value

import (
	"fmt"
	"math"
	"strconv"
)

// infinity sign stored in V.inf: 0 means finite.
const (
	finite = 0
	negInf = -1
	posInf = 1
)

// V is an element of an extended-integer carrier: either an exact int64 or
// one of ±∞. The zero V is the integer 0, which is also the Boolean ⊥ and
// the additive neutral element of (N, +).
type V struct {
	inf int8
	n   int64
}

// Int returns the finite value n.
func Int(n int64) V { return V{finite, n} }

// Bool embeds a Boolean into the carrier: ⊥ ↦ 0, ⊤ ↦ 1.
func Bool(b bool) V {
	if b {
		return V{finite, 1}
	}
	return V{finite, 0}
}

// PosInf is +∞, the neutral element of the MIN monoid.
func PosInf() V { return V{posInf, 0} }

// NegInf is −∞, the neutral element of the MAX monoid.
func NegInf() V { return V{negInf, 0} }

// IsInt reports whether v is finite.
func (v V) IsInt() bool { return v.inf == finite }

// IsPosInf reports whether v is +∞.
func (v V) IsPosInf() bool { return v.inf == posInf }

// IsNegInf reports whether v is −∞.
func (v V) IsNegInf() bool { return v.inf == negInf }

// Int64 returns the finite value of v. It panics if v is infinite; callers
// must check IsInt first when infinities may occur.
func (v V) Int64() int64 {
	if v.inf != finite {
		panic("value: Int64 of infinite value " + v.String())
	}
	return v.n
}

// Truth interprets v as a Boolean semiring element: 0 is ⊥ and everything
// else (including infinities) is ⊤.
func (v V) Truth() bool { return v.inf != finite || v.n != 0 }

// IsZero reports whether v is the integer 0.
func (v V) IsZero() bool { return v.inf == finite && v.n == 0 }

// IsOne reports whether v is the integer 1.
func (v V) IsOne() bool { return v.inf == finite && v.n == 1 }

// Cmp compares v and w in the total order of the extended integers:
// −∞ < every finite value < +∞. It returns −1, 0 or +1.
func (v V) Cmp(w V) int {
	switch {
	case v.inf < w.inf:
		return -1
	case v.inf > w.inf:
		return 1
	case v.inf != finite: // both are the same infinity
		return 0
	case v.n < w.n:
		return -1
	case v.n > w.n:
		return 1
	default:
		return 0
	}
}

// Less reports v < w in the extended-integer order.
func (v V) Less(w V) bool { return v.Cmp(w) < 0 }

// Add returns v + w. Adding infinities of equal sign (or an infinity and a
// finite value) follows the usual extended-arithmetic rules; +∞ + −∞ is
// undefined and panics, as it never arises from well-formed expressions.
func (v V) Add(w V) V {
	switch {
	case v.inf == finite && w.inf == finite:
		return V{finite, v.n + w.n}
	case v.inf == finite:
		return w
	case w.inf == finite:
		return v
	case v.inf == w.inf:
		return v
	default:
		panic("value: +∞ + −∞ is undefined")
	}
}

// Mul returns v · w with extended-arithmetic sign rules; 0 · ±∞ is 0, which
// matches the semimodule law s ⊗ 0M = 0S ⊗ m = 0M used throughout.
func (v V) Mul(w V) V {
	if v.inf == finite && w.inf == finite {
		return V{finite, v.n * w.n}
	}
	if v.IsZero() || w.IsZero() {
		return V{finite, 0}
	}
	sign := int8(1)
	if (v.inf == negInf) != (w.inf == negInf) {
		// exactly one negative-infinite factor; finite factors contribute sign too
		sign = -1
	}
	vn, wn := v.n, w.n
	if v.inf == finite && vn < 0 {
		sign = -sign
	}
	if w.inf == finite && wn < 0 {
		sign = -sign
	}
	if v.inf != finite && w.inf != finite {
		if v.inf == w.inf {
			sign = 1
		} else {
			sign = -1
		}
	}
	if sign > 0 {
		return PosInf()
	}
	return NegInf()
}

// Min returns the smaller of v and w.
func (v V) Min(w V) V {
	if v.Cmp(w) <= 0 {
		return v
	}
	return w
}

// Max returns the larger of v and w.
func (v V) Max(w V) V {
	if v.Cmp(w) >= 0 {
		return v
	}
	return w
}

// Float converts v to a float64, mapping ±∞ to the IEEE infinities. Used
// only for reporting (expected values); exact computation never leaves V.
func (v V) Float() float64 {
	switch v.inf {
	case posInf:
		return math.Inf(1)
	case negInf:
		return math.Inf(-1)
	default:
		return float64(v.n)
	}
}

// String renders v; infinities print as "+inf" and "-inf".
func (v V) String() string {
	switch v.inf {
	case posInf:
		return "+inf"
	case negInf:
		return "-inf"
	default:
		return strconv.FormatInt(v.n, 10)
	}
}

// Append appends the String rendering of v to b.
func (v V) Append(b []byte) []byte {
	if v.inf == finite {
		return strconv.AppendInt(b, v.n, 10)
	}
	return append(b, v.String()...)
}

// Parse parses the textual forms produced by String, plus "true"/"false"
// for the Boolean embedding.
func Parse(s string) (V, error) {
	switch s {
	case "+inf", "inf", "∞", "+∞":
		return PosInf(), nil
	case "-inf", "-∞":
		return NegInf(), nil
	case "true", "⊤":
		return Bool(true), nil
	case "false", "⊥":
		return Bool(false), nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return V{}, fmt.Errorf("value: cannot parse %q: %w", s, err)
	}
	return Int(n), nil
}

// Key returns a compact comparable form of v usable as a map key. V itself
// is comparable, but Key normalises the unused n field of infinities so
// that distinct representations cannot arise.
func (v V) Key() V {
	if v.inf != finite {
		return V{v.inf, 0}
	}
	return v
}
