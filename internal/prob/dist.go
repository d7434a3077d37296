// Package prob implements finite discrete probability distributions over
// carrier values and the convolution operations of the paper's Section 2.1
// and Section 5 (Proposition 1 and Eqs. (4)–(10)). Distributions are the
// objects computed bottom-up over decomposition trees.
package prob

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pvcagg/internal/value"
)

// Pair is a value together with its probability.
type Pair struct {
	V value.V
	P float64
}

// Dist is a finite discrete probability distribution, stored as pairs of
// distinct values with non-zero probability, sorted by value. The size of a
// distribution (paper Section 2.1) is the number of pairs. The zero Dist is
// the empty distribution (representing an impossible event, probability
// mass 0); it is accepted by all operations.
type Dist struct {
	pairs []Pair
}

// dropBelow is the threshold at or below which probabilities are dropped
// during construction. It is exactly zero — and deliberately so: the
// library's contract is bit-for-bit exact distributions, so only entries
// whose probability is exactly 0 (impossible outcomes, e.g. a Bernoulli
// with p = 1) are removed, and every subnormal-but-positive probability
// from long products is retained. TestDropBelowExactZero pins this
// behaviour.
const dropBelow = 0.0

// FromPairs builds a distribution from arbitrary (value, probability)
// pairs: duplicates are merged, zero-probability entries dropped, output
// sorted by value. Probabilities must be non-negative; they need not sum to
// one (sub-distributions arise when conditioning).
func FromPairs(pairs []Pair) Dist {
	m := make(map[value.V]float64, len(pairs))
	for _, p := range pairs {
		if p.P < 0 {
			panic(fmt.Sprintf("prob: negative probability %v for value %v", p.P, p.V))
		}
		m[p.V.Key()] += p.P
	}
	return fromMap(m)
}

func fromMap(m map[value.V]float64) Dist {
	out := pairsFor(len(m))
	for v, p := range m {
		if p > dropBelow {
			out = append(out, Pair{v, p})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].V.Less(out[j].V) })
	return Dist{out}
}

// pointZero and pointOne are the interned point distributions of the two
// ubiquitous constants (0S/⊥ and 1S/⊤): constant leaves evaluate to one
// of them in almost every case, and Dist contents are immutable, so the
// shared slices are safe to hand out.
var (
	pointZero = Dist{[]Pair{{value.Int(0), 1}}}
	pointOne  = Dist{[]Pair{{value.Int(1), 1}}}
)

// Point is the distribution concentrated on v with probability 1, the
// distribution of a constant leaf.
func Point(v value.V) Dist {
	k := v.Key()
	switch k {
	case value.Int(0):
		return pointZero
	case value.Int(1):
		return pointOne
	}
	return Dist{[]Pair{{k, 1}}}
}

// Bernoulli is the Boolean distribution {(⊤, p), (⊥, 1−p)}.
func Bernoulli(p float64) Dist {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("prob: Bernoulli probability %v out of range", p))
	}
	return FromPairs([]Pair{{value.Bool(true), p}, {value.Bool(false), 1 - p}})
}

// Size returns the number of (value, probability) pairs.
func (d Dist) Size() int { return len(d.pairs) }

// Pairs returns the sorted pairs. The returned slice must not be modified.
func (d Dist) Pairs() []Pair { return d.pairs }

// P returns the probability of value v (0 if absent).
func (d Dist) P(v value.V) float64 {
	v = v.Key()
	i := sort.Search(len(d.pairs), func(i int) bool { return !d.pairs[i].V.Less(v) })
	if i < len(d.pairs) && d.pairs[i].V == v {
		return d.pairs[i].P
	}
	return 0
}

// Mass returns the total probability mass (1 for proper distributions).
func (d Dist) Mass() float64 {
	t := 0.0
	for _, p := range d.pairs {
		t += p.P
	}
	return t
}

// Scale multiplies all probabilities by f ≥ 0 (used by mutex mixtures).
func (d Dist) Scale(f float64) Dist {
	if f < 0 {
		panic("prob: negative scale factor")
	}
	if f == 0 {
		return Dist{}
	}
	out := make([]Pair, len(d.pairs))
	for i, p := range d.pairs {
		out[i] = Pair{p.V, p.P * f}
	}
	return Dist{out}
}

// TruthProbability interprets d as a distribution over semiring elements
// and returns the probability that the value is non-zero (i.e. ⊤ in the
// Boolean semiring, or a non-zero multiplicity under bag semantics).
func (d Dist) TruthProbability() float64 {
	t := 0.0
	for _, p := range d.pairs {
		if p.V.Truth() {
			t += p.P
		}
	}
	return t
}

// Expectation returns the expected value, mapping ±∞ to IEEE infinities.
// It is used only for reporting; exact answers use the full distribution.
func (d Dist) Expectation() float64 {
	e := 0.0
	for _, p := range d.pairs {
		e += p.V.Float() * p.P
	}
	return e
}

// Equal reports whether the two distributions assign the same probability
// (within tol) to the same support.
func (d Dist) Equal(o Dist, tol float64) bool {
	i, j := 0, 0
	for i < len(d.pairs) || j < len(o.pairs) {
		switch {
		case i < len(d.pairs) && j < len(o.pairs) && d.pairs[i].V == o.pairs[j].V:
			if math.Abs(d.pairs[i].P-o.pairs[j].P) > tol {
				return false
			}
			i++
			j++
		case i < len(d.pairs) && (j >= len(o.pairs) || d.pairs[i].V.Less(o.pairs[j].V)):
			if d.pairs[i].P > tol {
				return false
			}
			i++
		default:
			if o.pairs[j].P > tol {
				return false
			}
			j++
		}
	}
	return true
}

// String renders the distribution as {(v1, p1), (v2, p2), ...}.
func (d Dist) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range d.pairs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%v, %.6g)", p.V, p.P)
	}
	b.WriteByte('}')
	return b.String()
}
