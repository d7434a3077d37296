package compile

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pvcagg/internal/expr"
)

// bruteComponents is the independence partition by definition: terms
// sharing a variable name are merged until nothing changes; groups and
// their terms in order of first term. It returns term indices.
func bruteComponents(terms []expr.Expr) [][]int {
	label := make([]int, len(terms))
	names := make([]map[string]bool, len(terms))
	for i, t := range terms {
		label[i] = i
		names[i] = map[string]bool{}
		for _, x := range expr.Vars(t) {
			names[i][x] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range terms {
			for j := range terms {
				if label[i] == label[j] {
					continue
				}
				for x := range names[i] {
					if names[j][x] {
						from, to := max(label[i], label[j]), min(label[i], label[j])
						for k := range label {
							if label[k] == from {
								label[k] = to
							}
						}
						changed = true
						break
					}
				}
			}
		}
	}
	var out [][]int
	at := map[int]int{}
	for i, l := range label {
		g, ok := at[l]
		if !ok {
			g, at[l] = len(out), len(out)
			out = append(out, nil)
		}
		out[g] = append(out[g], i)
	}
	return out
}

// indices renders a partition of terms, its groups built by
// expr.AdoptSum, as term indices; the terms of one test are pairwise
// distinct expressions, none of them a sum.
func indices(terms []expr.Expr, groups []expr.Expr) [][]int {
	if groups == nil {
		groups = []expr.Expr{expr.AdoptSum(terms)}
	}
	out := make([][]int, len(groups))
	for g, group := range groups {
		members := []expr.Expr{group}
		if a, ok := group.(expr.Add); ok {
			members = a.Terms
		}
		for _, t := range members {
			for i := range terms {
				if expr.Equal(terms[i], t) {
					out[g] = append(out[g], i)
				}
			}
		}
	}
	return out
}

// randomTerms draws n distinct terms — products of one to three variables
// of the pool, a few of them constants — so that the partition has
// anything from one to n groups.
func randomTerms(r *rand.Rand, pool []string, n int) []expr.Expr {
	seen := map[uint64]bool{}
	var terms []expr.Expr
	for len(terms) < n {
		var t expr.Expr = expr.CInt(int64(2 + len(terms)))
		if r.Intn(8) > 0 {
			fs := make([]expr.Expr, 1+r.Intn(3))
			for i := range fs {
				fs[i] = expr.V(pool[r.Intn(len(pool))])
			}
			t = expr.Product(fs...)
		}
		if !seen[expr.Hash(t)] {
			seen[expr.Hash(t)] = true
			terms = append(terms, t)
		}
	}
	return terms
}

// TestComponentsSignatureEqualsWalk: on inputs whose variables fall on
// distinct signature bits the partition read off signatures, the partition
// by walking and the partition by definition are the same, group for
// group in the same order; on inputs with more than 64 variables the
// compilation takes the walk, and two terms that share a bit but no
// variable stay apart. Either way a group of one term is the term, the
// larger groups are carved from one array at their own length, and the
// partition allocates that array alone.
func TestComponentsSignatureEqualsWalk(t *testing.T) {
	narrow := make([]string, 12)
	for i := range narrow {
		narrow[i] = fmt.Sprintf("cs%d", i)
	}
	wide := make([]string, 130)
	for i := range wide {
		wide[i] = fmt.Sprintf("cw%d", i)
	}
	r := rand.New(rand.NewSource(24))
	for _, c := range []struct {
		pool  []string
		exact bool
	}{{narrow, true}, {wide, false}} {
		split := 0
		for trial := 0; trial < 400; trial++ {
			pool := c.pool
			if c.exact { // few variables a term list, so that it splits
				pool = pool[:3+r.Intn(len(pool)-2)]
			}
			terms := randomTerms(r, pool, 2+r.Intn(12))
			want := bruteComponents(terms)
			sc := getScratch(expr.Sum(terms...))
			if c.exact && !sc.sigExact {
				t.Fatalf("variables %v do not fall on distinct signature bits", pool)
			}
			modes := []bool{false} // walk always; signatures where they are exact
			if sc.sigExact {
				modes = append(modes, true)
			}
			for _, sigExact := range modes {
				sc.sigExact = sigExact
				var built [][]expr.Expr // what components hands to build
				groups := sc.components(terms, func(g []expr.Expr) expr.Expr {
					built = append(built, g)
					return expr.AdoptSum(g)
				})
				if got := indices(terms, groups); !reflect.DeepEqual(got, want) {
					t.Fatalf("sigExact=%v: components(%s) = %v, by definition %v", sigExact, expr.String(expr.Sum(terms...)), got, want)
				}
				for _, g := range built {
					if cap(g) != len(g) || len(g) < 2 {
						t.Fatalf("group of %d terms has room for %d: a node adopting it could be overwritten", len(g), cap(g))
					}
				}
				sc.popGroups(groups)
				wantAllocs := 0.0
				if groups != nil {
					split++
				}
				if len(built) > 0 {
					wantAllocs = 1 // the backing array
				}
				first := func(g []expr.Expr) expr.Expr { return g[0] }
				if n := testing.AllocsPerRun(5, func() { sc.popGroups(sc.components(terms, first)) }); n != wantAllocs {
					t.Fatalf("sigExact=%v: components allocates %v times for %d groups", sigExact, n, len(groups))
				}
				if len(sc.groups) != 0 {
					t.Fatalf("popGroups leaves %d groups on the stack", len(sc.groups))
				}
			}
			putScratch(sc)
		}
		if split < 100 {
			t.Errorf("pool of %d: only %d partitions split", len(c.pool), split)
		}
	}

	// Two variables on one bit: signatures alone would join the terms.
	byBit := map[expr.VarID]string{}
	for _, name := range wide {
		id := expr.Intern(name)
		other, clash := byBit[id&63]
		if !clash {
			byBit[id&63] = name
			continue
		}
		terms := []expr.Expr{expr.V(other), expr.V(name), expr.Product(expr.V(other), expr.V("cw_third"))}
		sc := getScratch(expr.Sum(terms...))
		defer putScratch(sc)
		if sc.sigExact || expr.Sig(terms[0]) != expr.Sig(terms[1]) {
			t.Fatalf("%s and %s share a signature bit, yet sigExact = %v", other, name, sc.sigExact)
		}
		if got, want := indices(terms, sc.components(terms, expr.AdoptSum)), [][]int{{0, 2}, {1}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("components = %v, want %v", got, want)
		}
		if sc.disjoint(terms[0], terms[2]) || !sc.disjoint(terms[0], terms[1]) {
			t.Fatal("disjoint trusts a signature that is not exact")
		}
		return
	}
	t.Fatal("130 variables and no two on one signature bit")
}

// TestCompileAllocationCeiling pins what one compilation allocates on a
// fixed §7.1 cell (a Shannon-heavy SUM ≤ c cell of the golden grid, 217
// expansions): 20 % above the figure measured once independent parts were
// combined in place and a SUM comparison's cap stopped computing bounds
// (6 926 allocations; 7 312 before, 15 900 before cofactors moved to the
// scratch stack). A change that sends a Shannon step back to the
// allocator fails here before it shows in a benchmark.
func TestCompileAllocationCeiling(t *testing.T) {
	const cell, measured = "grid/SUM <= c=480 L=12", 6926
	for _, c := range goldenGridCells() {
		if c.name != cell {
			continue
		}
		got := testing.AllocsPerRun(10, func() {
			if _, err := New(c.s, c.reg, c.opts).CompileCtx(context.Background(), c.e); err != nil {
				t.Fatal(err)
			}
		})
		if got > measured*1.2 {
			t.Errorf("compiling %s allocates %.0f times, ceiling %.0f", c.name, got, measured*1.2)
		}
		return
	}
	t.Fatalf("no cell %q in the golden grid", cell)
}
