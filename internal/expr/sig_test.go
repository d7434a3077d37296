package expr

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/value"
)

// literal rebuilds the node of e as a struct literal over the same
// children: no cached hash, count or signature.
func literal(e Expr) Expr {
	switch n := e.(type) {
	case Add:
		return Add{Terms: n.Terms}
	case Mul:
		return Mul{Factors: n.Factors}
	case Tensor:
		return Tensor{Agg: n.Agg, Scalar: n.Scalar, Mod: n.Mod}
	case AggSum:
		return AggSum{Agg: n.Agg, Terms: n.Terms}
	case Cmp:
		return Cmp{Th: n.Th, L: n.L, R: n.R}
	}
	return e
}

func children(e Expr) []Expr {
	switch n := e.(type) {
	case Add:
		return n.Terms
	case Mul:
		return n.Factors
	case Tensor:
		return []Expr{n.Scalar, n.Mod}
	case AggSum:
		return n.Terms
	case Cmp:
		return []Expr{n.L, n.R}
	}
	return nil
}

// checkSummaries holds what every node of e caches to what a struct
// literal over the same children recomputes, and the signature to the
// variables: exactly the bits of Vars(e), so every variable has its bit
// and a clear bit means absence.
func checkSummaries(t *testing.T, e Expr) {
	t.Helper()
	lit := literal(e)
	if Hash(e) != Hash(lit) || varOcc(e) != varOcc(lit) || Sig(e) != Sig(lit) {
		t.Fatalf("%s caches hash %x, %d occurrences, signature %x; recomputed %x, %d, %x",
			String(e), Hash(e), varOcc(e), Sig(e), Hash(lit), varOcc(lit), Sig(lit))
	}
	var want uint64
	for _, name := range Vars(e) {
		want |= 1 << (uint(Intern(name)) & 63)
	}
	if Sig(e) != want {
		t.Fatalf("Sig(%s) = %x, its variables give %x", String(e), Sig(e), want)
	}
	for _, c := range children(e) {
		checkSummaries(t, c)
	}
}

// collidingPool returns n fresh variable names with, for n > 64, at least
// two IDs on one signature bit.
func collidingPool(prefix string, n int) []string {
	pool := make([]string, n)
	for i := range pool {
		pool[i] = fmt.Sprintf("%s%d", prefix, i)
		Intern(pool[i])
	}
	return pool
}

// TestSigSoundness: over the shapes of internal/gen and the ones only the
// engine builds (restrictGen), with few variables and with more than 64,
// the cached summaries survive Simplify, Restrict and the folds; HasVarID
// and ContainsAny, which trust the signature, agree with the variable
// list on constructor-built and on struct-literal nodes; and SigIsExact
// is true exactly when no two variables share a bit.
func TestSigSoundness(t *testing.T) {
	for _, pool := range [][]string{
		{"sg0", "sg1", "sg2", "sg3", "sg4", "sg5"},
		collidingPool("sgw", 150),
	} {
		g := restrictGen{r: rand.New(rand.NewSource(24)), pool: pool}
		exact := 0
		for i := 0; i < 1500; i++ {
			raw := g.any(2 + i%3)
			checkSummaries(t, raw)
			s, v := boolS, value.Bool(i%2 == 0)
			if i%3 == 0 {
				s, v = natS, value.Int(int64(i%4))
			}
			e := Simplify(raw, s)
			checkSummaries(t, e)
			names := Vars(e)
			bits := map[VarID]bool{}
			for _, name := range names {
				bits[Intern(name)&63] = true
			}
			if got, want := SigIsExact(e), len(bits) == len(names); got != want {
				t.Fatalf("SigIsExact(%s) = %v with %d variables on %d bits", String(e), got, len(names), len(bits))
			} else if got {
				exact++
			}
			var vs VarSet
			for k, name := range append(names, pool[i%len(pool)]) {
				x := Intern(name)
				mentioned := k < len(names) || slices.Contains(names, name)
				for _, form := range []Expr{e, literal(e)} {
					if HasVarID(form, x) != mentioned {
						t.Fatalf("HasVarID(%s, %s) = %v", String(form), name, !mentioned)
					}
					vs.Reset()
					vs.add(x, 1)
					if ContainsAny(form, &vs) != mentioned {
						t.Fatalf("ContainsAny(%s, {%s}) = %v", String(form), name, !mentioned)
					}
				}
				if mentioned {
					checkSummaries(t, Restrict(e, x, v, s))
				}
			}
			if cs := children(e); len(cs) > 2 {
				switch n := e.(type) {
				case Add:
					checkSummaries(t, AdoptSum(append([]Expr(nil), cs[1:]...)))
				case Mul:
					checkSummaries(t, AdoptProduct(append([]Expr(nil), cs[1:]...)))
				case AggSum:
					checkSummaries(t, AdoptMSum(n.Agg, append([]Expr(nil), cs[1:]...)))
				}
			}
		}
		if len(pool) < 64 && exact == 0 || len(pool) > 64 && exact == 1500 {
			t.Errorf("pool of %d variables: %d of 1500 expressions have an exact signature", len(pool), exact)
		}
	}
}

// TestAdoptFlattensWhenItMust: a slice with a child of the node's own kind
// is not adopted as it is.
func TestAdoptFlattensWhenItMust(t *testing.T) {
	x, y, z := V("ad_x"), V("ad_y"), V("ad_z")
	for _, c := range []struct{ got, want Expr }{
		{AdoptSum([]Expr{x, Sum(y, z)}), Sum(x, y, z)},
		{AdoptProduct([]Expr{Product(x, y), z}), Product(x, y, z)},
		{AdoptMSum(algebra.Min, []Expr{Scale(algebra.Min, x, value.Int(1)), MSum(algebra.Min, Scale(algebra.Min, y, value.Int(2)), MInt(3))}),
			MSum(algebra.Min, Scale(algebra.Min, x, value.Int(1)), Scale(algebra.Min, y, value.Int(2)), MInt(3))},
		{AdoptSum([]Expr{x}), x},
	} {
		if !Equal(c.got, c.want) || Hash(c.got) != Hash(c.want) {
			t.Errorf("adopted %s, want %s", String(c.got), String(c.want))
		}
	}
	own := []Expr{x, y}
	if sum := AdoptSum(own).(Add); &sum.Terms[0] != &own[0] {
		t.Error("AdoptSum copied a slice it could adopt")
	}
}

// TestRestrictCollapseAllocatesNothing: a cofactor that folds away — a
// product to 0S, a sum to its one remaining term, a tensor to its
// monoid's neutral element, a comparison to a constant — is returned
// without a slice or a node being allocated for it, on a scratch that has
// been used before.
func TestRestrictCollapseAllocatesNothing(t *testing.T) {
	x := Intern("rc_x")
	var sc Scratch
	for _, c := range []struct {
		src  string
		v    value.V
		want string
	}{
		{"rc_x*rc_y*rc_z", value.Int(0), "0"},
		{"rc_x*rc_y + rc_z", value.Int(0), "rc_z"},
		{"rc_x + 0*rc_y", value.Int(1), "1"},
		{"(rc_x*rc_y) @min 5", value.Int(0), "m:+inf"},
		{"min((rc_x*rc_y) @min 5, (rc_x*rc_z) @min 7)", value.Int(0), "m:+inf"},
		{"sum(rc_x @sum 5, rc_y @sum 7)", value.Int(0), "(rc_y @sum m:7)"},
		{"[min((rc_x*rc_y) @min 5, rc_x @min 7) <= 6]", value.Int(0), "0"},
		{"rc_x @max 3", value.Int(1), "m:3"},
	} {
		e := Simplify(MustParse(c.src), natS)
		if got := String(sc.Restrict(e, x, c.v, natS)); got != c.want {
			t.Errorf("Restrict(%s, rc_x←%v) = %s, want %s", c.src, c.v, got, c.want)
		}
		if n := testing.AllocsPerRun(20, func() { restrictSink = sc.Restrict(e, x, c.v, natS) }); n != 0 {
			t.Errorf("Restrict(%s, rc_x←%v) allocates %v times", c.src, c.v, n)
		}
	}
}
