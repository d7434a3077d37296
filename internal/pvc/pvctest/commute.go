package pvctest

import (
	"fmt"
	"testing"

	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// maxWorlds is the most valuations CheckCommutes enumerates; a larger
// database fails the test instead of stalling it.
const maxWorlds = 1 << 12

// CheckCommutes holds a step-I evaluator to the paper's semantics on db:
// for every valuation ν of the registry's variables,
//
//	ν(⟦Q⟧(D)) = Q(ν(D))
//
// as K-relations, where eval is Q's evaluator, ν(D) keeps each base tuple
// with the constant annotation ν(Φ) (dropping it at 0S) and both sides
// are read as maps from a tuple of values — aggregation cells evaluated —
// to the semiring sum of its annotations. Equality is exact: a missing or
// surplus tuple, a wrong multiplicity under N and a wrong value in any
// aggregation column of a present tuple all fail. Probabilities play no
// part, so worlds of probability 0 are checked like any other. What it
// cannot see is a defect that is the same in every world — a wrong θ on
// constants, say: the deterministic side is the evaluator itself.
func CheckCommutes(t testing.TB, db *pvc.Database, eval func(*pvc.Database) (*pvc.Relation, error)) {
	t.Helper()
	rel, err := eval(db)
	if err != nil {
		t.Fatalf("symbolic evaluation: %v", err)
	}
	names := db.Registry.Names()
	if n := db.Registry.WorldCount(names); n > maxWorlds {
		t.Fatalf("%d worlds over %d variables: shrink the tables (at most %d are enumerated)", n, len(names), maxWorlds)
	}
	err = db.Registry.Enumerate(names, func(nu expr.Valuation, _ float64) {
		wdb := worldDatabase(t, db, nu)
		wrel, err := eval(wdb)
		if err != nil {
			t.Fatalf("world %v: evaluation: %v", nu, err)
		}
		got, want := worldBag(t, db, rel, nu), worldBag(t, wdb, wrel, nil)
		check := func(k string) {
			// An absent tuple reads as the zero value.V, which is 0S.
			if got[k] != want[k] {
				t.Fatalf("world %v: tuple %s is annotated %v in ν(⟦Q⟧(D)) and %v in Q(ν(D)) (0 = absent)\nsymbolic:\n%s\nworld:\n%s",
					nu, k, got[k], want[k], rel, wrel)
			}
		}
		for k := range got {
			check(k)
		}
		for k := range want {
			check(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// worldDatabase is ν(D): every base tuple whose annotation is not 0S
// under nu, annotated with that value as a constant (its multiplicity
// under N) and with its aggregation cells evaluated.
func worldDatabase(t testing.TB, db *pvc.Database, nu expr.Valuation) *pvc.Database {
	s := db.Semiring()
	out := pvc.NewDatabase(db.Kind)
	for _, name := range db.Names() {
		rel, err := db.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		wrel := pvc.NewRelation(name, rel.Schema)
		for _, tup := range rel.Tuples {
			v, err := expr.Eval(tup.Ann, nu, s)
			if err != nil {
				t.Fatalf("%s: annotation %s: %v", name, expr.String(tup.Ann), err)
			}
			if v == s.Zero() {
				continue
			}
			cells := make([]pvc.Cell, len(tup.Cells))
			for i, c := range tup.Cells {
				if c.Kind() == pvc.KindExpr {
					mv, err := expr.Eval(c.Expr(), nu, s)
					if err != nil {
						t.Fatalf("%s: cell %s: %v", name, c, err)
					}
					c = pvc.ExprCell(expr.MConst{V: mv})
				}
				cells[i] = c
			}
			wrel.MustInsert(expr.Const{V: v}, cells...)
		}
		out.Add(wrel)
	}
	return out
}

// worldBag reads ν(rel) as a K-relation: the tuples of the world of rel
// under nu (pvc.Database.World), rendered as text, with the sum of their
// annotations.
func worldBag(t testing.TB, db *pvc.Database, rel *pvc.Relation, nu expr.Valuation) map[string]value.V {
	s := db.Semiring()
	tuples, err := db.World(rel, nu)
	if err != nil {
		t.Fatalf("world %v of %s: %v", nu, rel.Name, err)
	}
	bag := make(map[string]value.V, len(tuples))
	for _, wt := range tuples {
		k := fmt.Sprintf("%v%q", wt.Values, wt.Texts)
		bag[k] = s.Add(bag[k], wt.Mult)
	}
	return bag
}
