// Package opt is PVQL's logical optimizer: probability-preserving
// rewrites of Q-algebra plans applied between the binder's naive lowering
// and execution. Five passes run in order:
//
//  1. predicate pushdown — filter atoms (comparisons over constant
//     columns) sink below joins, products, unions, renames, projections
//     and grouping, as close to the scans as the columns allow; adjacent
//     selections merge. Comparisons involving aggregation columns (the
//     paper's σ over semimodule values) never move: they rewrite
//     annotations, and their position pins the annotation expression
//     shape bit-for-bit.
//  2. Product+Select→Join fusion — σ with an equality atom x = y over a
//     cross product (or an existing join) becomes a natural join after
//     δ-renaming y to x, when y is dead above and unreferenced by the
//     remaining atoms.
//  3. structural join order — a maximal natural-join tree in which every
//     ⋈ shares a column stays as written; otherwise it is rebuilt
//     left-deep, each next leaf the first (left to right) that shares a
//     column with those already joined, so no ⋈ becomes a cross product
//     that a later leaf could have keyed. A π̂ restores the original
//     column order when it changes. No cardinality is consulted: the
//     order follows from the query's structure alone.
//  4. projection pruning — π̂ nodes drop dead columns directly above the
//     scans, dead aggregation specs disappear from $, and renames of
//     dead columns vanish. π̂ never collapses tuples, so annotations are
//     untouched.
//  5. build-side choice (physical.go) — each ⋈ commutes the input with
//     the smaller row bound (engine.RowBound: table row counts, never
//     estimates) to the right, the side the streaming hash join
//     materializes as its build table, with a π̂ restoring the column
//     order; joins whose build side is bounded under BuildSideThreshold
//     rows are left alone.
//
// Passes 2 and 4 carry the columns live above each node down the tree
// through one rule, needs, which says per operator what it reads from
// each input; each pass adds only the cases it rewrites.
//
// Every rewrite preserves the result relation — tuples, annotations and
// aggregation expressions — exactly, with two documented exceptions that
// preserve probabilities but may reassociate annotation expressions:
// fusion of atoms that engine.Select would have applied in a different
// multiplication order never arises (fused atoms are pure filters), and
// join reordering — like the build-side commute of pass 5 — permutes the
// factors of the annotation products. Both are exact in real arithmetic;
// the differential suite pins them bit-for-bit on dyadic (power-of-two)
// tuple marginals, where float64 arithmetic is exact in any order.
package opt

import (
	"maps"
	"slices"

	"pvcagg/internal/engine"
	"pvcagg/internal/pvc"
	"pvcagg/internal/value"
)

// Optimize rewrites a plan. Invalid plans (whose schemas do not infer)
// pass through unchanged so evaluation reports the original error.
func Optimize(p engine.Plan, db *pvc.Database) engine.Plan {
	schema, err := engine.InferSchema(p, db)
	if err != nil {
		return p
	}
	live := nameSet(schema.Names())
	p = pushdown(p, db)
	p = fuse(p, db, live)
	p = reorder(p, db)
	p = prunePass(p, db, live)
	p = buildSides(p, db)
	return p
}

func nameSet(names []string) map[string]bool {
	s := make(map[string]bool, len(names))
	setAll(s, names...)
	return s
}

// atomCols returns the column names an atom references.
func atomCols(a engine.Atom) []string {
	if a.RightCol != "" {
		return []string{a.Left, a.RightCol}
	}
	return []string{a.Left}
}

// isFilterAtom reports whether the atom is a pure filter on the given
// schema: every referenced column is a constant column and the constant
// (if any) is not a semimodule expression. Filter atoms drop tuples
// without touching annotations, so they commute with every operator that
// groups by whole keys.
func isFilterAtom(a engine.Atom, schema pvc.Schema) bool {
	for _, c := range atomCols(a) {
		j := schema.Index(c)
		if j < 0 || schema[j].Type == pvc.TModule {
			return false
		}
	}
	return a.RightVal == nil || a.RightVal.Kind() != pvc.KindExpr
}

// ---------------------------------------------------------------------
// Pass 1: predicate pushdown.

func pushdown(p engine.Plan, db *pvc.Database) engine.Plan {
	switch n := p.(type) {
	case *engine.Select:
		in := pushdown(n.Input, db)
		schema, err := engine.InferSchema(in, db)
		if err != nil {
			return &engine.Select{Input: in, Pred: n.Pred}
		}
		var remaining []engine.Atom
		for _, a := range n.Pred.Atoms {
			if isFilterAtom(a, schema) {
				if np, ok := sink(a, in, db); ok {
					in = np
					continue
				}
			}
			remaining = append(remaining, a)
		}
		if len(remaining) == 0 {
			return in
		}
		return &engine.Select{Input: in, Pred: engine.Pred{Atoms: remaining}}
	default:
		return engine.MapChildren(p, func(c engine.Plan) engine.Plan { return pushdown(c, db) })
	}
}

// sink pushes a filter atom strictly below p, returning (newPlan, true)
// when it was absorbed somewhere under p, or (p, false) when it belongs
// directly above p.
func sink(a engine.Atom, p engine.Plan, db *pvc.Database) (engine.Plan, bool) {
	cols := atomCols(a)
	within := func(schema pvc.Schema) bool {
		for _, c := range cols {
			if schema.Index(c) < 0 {
				return false
			}
		}
		return true
	}
	// place puts the atom below child if possible, else wraps child in a
	// fresh selection.
	place := func(child engine.Plan) engine.Plan {
		if np, ok := sink(a, child, db); ok {
			return np
		}
		return &engine.Select{Input: child, Pred: engine.Where(a)}
	}
	switch n := p.(type) {
	case *engine.Select:
		if np, ok := sink(a, n.Input, db); ok {
			return &engine.Select{Input: np, Pred: n.Pred}, true
		}
		// Merge: appending a filter after the existing atoms preserves the
		// module atoms' multiplication order exactly.
		atoms := append(append([]engine.Atom{}, n.Pred.Atoms...), a)
		return &engine.Select{Input: n.Input, Pred: engine.Pred{Atoms: atoms}}, true
	case *engine.Rename:
		mapped := a
		if mapped.Left == n.To {
			mapped.Left = n.From
		}
		if mapped.RightCol == n.To {
			mapped.RightCol = n.From
		}
		if np, ok := sink(mapped, n.Input, db); ok {
			return &engine.Rename{Input: np, From: n.From, To: n.To}, true
		}
		return p, false
	case *engine.Project, *engine.Prune, *engine.Union:
		return engine.MapChildren(p, place), true
	case *engine.Join:
		l, errL := engine.InferSchema(n.L, db)
		r, errR := engine.InferSchema(n.R, db)
		if errL != nil || errR != nil {
			return p, false
		}
		inL, inR := within(l), within(r)
		switch {
		case inL && inR:
			return &engine.Join{L: place(n.L), R: place(n.R)}, true
		case inL:
			return &engine.Join{L: place(n.L), R: n.R}, true
		case inR:
			return &engine.Join{L: n.L, R: place(n.R)}, true
		default:
			return p, false
		}
	case *engine.Product:
		l, errL := engine.InferSchema(n.L, db)
		r, errR := engine.InferSchema(n.R, db)
		if errL != nil || errR != nil {
			return p, false
		}
		switch {
		case within(l):
			return &engine.Product{L: place(n.L), R: n.R}, true
		case within(r):
			return &engine.Product{L: n.L, R: place(n.R)}, true
		default:
			return p, false
		}
	case *engine.GroupAgg:
		for _, c := range cols {
			if !slices.Contains(n.GroupBy, c) {
				return p, false
			}
		}
		return engine.MapChildren(p, place), true
	default:
		return p, false
	}
}

// ---------------------------------------------------------------------
// Pass 2: Product+Select→Join fusion.

func fuse(p engine.Plan, db *pvc.Database, live map[string]bool) engine.Plan {
	if sel, ok := p.(*engine.Select); ok {
		p = fuseSelect(sel, db, live)
	}
	in := [2]map[string]bool{{}, {}}
	if !needs(p, db, live, in) {
		return p
	}
	i := -1
	return engine.MapChildren(p, func(c engine.Plan) engine.Plan { i++; return fuse(c, db, in[i]) })
}

// fuseSelect turns σ[… x=y …](L × R) into σ[…](L ⋈ δ[x←y](R)) when x and
// y are constant columns on opposite sides, y is dead above this node and
// unreferenced by the other atoms, and x does not already occur in R. The
// rule applies to existing joins too (adding x to the key set), and
// iterates while any atom fuses.
func fuseSelect(sel *engine.Select, db *pvc.Database, live map[string]bool) engine.Plan {
	atoms := append([]engine.Atom{}, sel.Pred.Atoms...)
	input := sel.Input
	for {
		var l, r engine.Plan
		switch n := input.(type) {
		case *engine.Product:
			l, r = n.L, n.R
		case *engine.Join:
			l, r = n.L, n.R
		default:
			break
		}
		if l == nil {
			break
		}
		ls, errL := engine.InferSchema(l, db)
		rs, errR := engine.InferSchema(r, db)
		if errL != nil || errR != nil {
			break
		}
		fusedAt := -1
		for i, a := range atoms {
			if a.Th != value.EQ || a.RightCol == "" || a.Left == a.RightCol {
				continue
			}
			var x, y string
			switch {
			case ls.Index(a.Left) >= 0 && rs.Index(a.RightCol) >= 0:
				x, y = a.Left, a.RightCol
			case ls.Index(a.RightCol) >= 0 && rs.Index(a.Left) >= 0:
				x, y = a.RightCol, a.Left
			default:
				continue
			}
			if colType(ls, x) != pvc.TValue && colType(ls, x) != pvc.TString {
				continue
			}
			if colType(rs, y) == pvc.TModule {
				continue
			}
			if live[y] || rs.Index(x) >= 0 {
				continue
			}
			referenced := false
			for j, other := range atoms {
				if j == i {
					continue
				}
				if slices.Contains(atomCols(other), y) {
					referenced = true
					break
				}
			}
			if referenced {
				continue
			}
			input = &engine.Join{L: l, R: &engine.Rename{Input: r, From: y, To: x}}
			atoms = append(atoms[:i], atoms[i+1:]...)
			fusedAt = i
			break
		}
		if fusedAt < 0 {
			break
		}
	}
	if len(atoms) == 0 {
		return input
	}
	return &engine.Select{Input: input, Pred: engine.Pred{Atoms: atoms}}
}

// ---------------------------------------------------------------------
// Pass 3: structural join order.

// reorder keeps a maximal ⋈ tree as written when every ⋈ in it shares a
// column. Otherwise the tree is rebuilt left-deep: its leaves are taken
// left to right, each next leaf being the first that shares a column
// with those already taken (the first left when none does), and a π̂
// restores the column order.
func reorder(p engine.Plan, db *pvc.Database) engine.Plan {
	if _, ok := p.(*engine.Join); !ok {
		return engine.MapChildren(p, func(c engine.Plan) engine.Plan { return reorder(c, db) })
	}
	leaves := flattenJoin(p)
	for i := range leaves {
		leaves[i] = reorder(leaves[i], db)
	}
	scratch := slices.Clone(leaves)
	written := rebuildJoin(p, &scratch)
	if connected(written, db) {
		return written
	}
	joined := leaves[0]
	taken, _ := engine.InferSchema(joined, db)
	rest := leaves[1:]
	for len(rest) > 0 {
		next := 0
		for i, l := range rest {
			if s, err := engine.InferSchema(l, db); err == nil && len(sharedCols(taken, s)) > 0 {
				next = i
				break
			}
		}
		joined = &engine.Join{L: joined, R: rest[next]}
		rest = slices.Delete(rest, next, next+1)
		taken, _ = engine.InferSchema(joined, db)
	}
	want, err1 := engine.InferSchema(written, db)
	got, err2 := engine.InferSchema(joined, db)
	if err1 != nil || err2 != nil {
		return written
	}
	if want.Equal(got) {
		return joined
	}
	return &engine.Prune{Input: joined, Cols: want.Names()}
}

// connected reports whether every ⋈ of a ⋈ tree shares a column.
func connected(p engine.Plan, db *pvc.Database) bool {
	j, ok := p.(*engine.Join)
	if !ok {
		return true
	}
	ls, errL := engine.InferSchema(j.L, db)
	rs, errR := engine.InferSchema(j.R, db)
	return errL == nil && errR == nil && len(sharedCols(ls, rs)) > 0 &&
		connected(j.L, db) && connected(j.R, db)
}

// flattenJoin lists the non-Join leaves of a maximal Join tree, left to
// right.
func flattenJoin(p engine.Plan) []engine.Plan {
	if j, ok := p.(*engine.Join); ok {
		return append(flattenJoin(j.L), flattenJoin(j.R)...)
	}
	return []engine.Plan{p}
}

// rebuildJoin reproduces the original join-tree shape over the (already
// individually reordered) leaves, consumed left to right.
func rebuildJoin(p engine.Plan, leaves *[]engine.Plan) engine.Plan {
	if j, ok := p.(*engine.Join); ok {
		l := rebuildJoin(j.L, leaves)
		r := rebuildJoin(j.R, leaves)
		return &engine.Join{L: l, R: r}
	}
	leaf := (*leaves)[0]
	*leaves = (*leaves)[1:]
	return leaf
}

// ---------------------------------------------------------------------
// Pass 4: projection pruning.

// prunePass drops columns nothing above needs: π̂ directly above scans,
// dead aggregation specs out of $, and renames of dead columns. The
// returned plan's schema is the input schema restricted to a superset of
// live (order preserved); at the root live covers the whole schema, so
// the query's output is untouched.
func prunePass(p engine.Plan, db *pvc.Database, live map[string]bool) engine.Plan {
	switch n := p.(type) {
	case *engine.Scan:
		schema, err := db.Schema(n.Table)
		if err != nil {
			return p
		}
		var keep []string
		for _, c := range schema {
			if live[c.Name] {
				keep = append(keep, c.Name)
			}
		}
		if len(keep) == len(schema) {
			return p
		}
		if len(keep) == 0 {
			// A source referenced only for its annotations still needs one
			// column to remain a relation.
			keep = []string{schema[0].Name}
		}
		return &engine.Prune{Input: p, Cols: keep}
	case *engine.GroupAgg:
		kept := make([]engine.AggSpec, 0, len(n.Aggs))
		for _, a := range n.Aggs {
			if live[a.Out] {
				kept = append(kept, a)
			}
		}
		if len(kept) == 0 && len(n.GroupBy) == 0 && len(n.Aggs) > 0 {
			kept = n.Aggs[:1] // keep the relation non-empty-schema'd
		}
		p = &engine.GroupAgg{Input: n.Input, GroupBy: n.GroupBy, Aggs: kept}
	}
	in := [2]map[string]bool{{}, {}}
	if !needs(p, db, live, in) {
		return p
	}
	i := -1
	out := engine.MapChildren(p, func(c engine.Plan) engine.Plan { i++; return prunePass(c, db, in[i]) })
	if r, ok := out.(*engine.Rename); ok && !live[r.To] {
		// The renamed column is dead, so needs did not keep From alive.
		// Drop the δ node only when From actually disappeared — if the
		// child had to keep it (e.g. under a ∪), dropping the rename would
		// re-expose From and silently widen the key set of a natural join
		// above.
		if s, err := engine.InferSchema(r.Input, db); err == nil && s.Index(r.From) < 0 {
			return r.Input
		}
	}
	return out
}

// ---------------------------------------------------------------------
// The column-needs rule fusion and pruning share.

// needs writes into in, for each input of p in Children order, the
// columns p reads from it given the live columns of its output: σ adds
// its atoms' columns, δ maps To back to From, π and π̂ need their
// columns, $ its group-by and Over columns, ∪ every column, and ⋈ and ×
// each side's live columns plus the join keys. It reports false for a
// Scan and for inputs whose schemas do not infer. The passes make the
// sets and recurse by name, which keeps the sets off the heap.
func needs(p engine.Plan, db *pvc.Database, live map[string]bool, in [2]map[string]bool) bool {
	switch n := p.(type) {
	case *engine.Select:
		maps.Copy(in[0], live)
		for _, a := range n.Pred.Atoms {
			setAll(in[0], atomCols(a)...)
		}
	case *engine.Rename:
		maps.Copy(in[0], live)
		if live[n.To] {
			delete(in[0], n.To)
			in[0][n.From] = true
		}
	case *engine.Project:
		setAll(in[0], n.Cols...)
	case *engine.Prune:
		setAll(in[0], n.Cols...)
	case *engine.GroupAgg:
		setAll(in[0], n.GroupBy...)
		for _, a := range n.Aggs {
			if a.Over != "" {
				in[0][a.Over] = true
			}
		}
	case *engine.Union:
		ls, err := engine.InferSchema(n.L, db)
		if err != nil {
			return false
		}
		// Narrowing a ∪ could collapse tuples that differ only in a dropped
		// column, changing the summed annotations: both inputs stay whole.
		for _, c := range ls {
			in[0][c.Name], in[1][c.Name] = true, true
		}
	case *engine.Join, *engine.Product:
		kids := engine.Children(p)
		ls, errL := engine.InferSchema(kids[0], db)
		rs, errR := engine.InferSchema(kids[1], db)
		if errL != nil || errR != nil {
			return false
		}
		keys := sharedCols(ls, rs) // none under a valid ×
		for i, side := range [2]pvc.Schema{ls, rs} {
			for _, c := range side {
				if live[c.Name] {
					in[i][c.Name] = true
				}
			}
			setAll(in[i], keys...)
		}
	default:
		return false
	}
	return true
}

// ---------------------------------------------------------------------
// Shared helpers.

func colType(s pvc.Schema, name string) pvc.ColType {
	if j := s.Index(name); j >= 0 {
		return s[j].Type
	}
	return pvc.TValue
}

func sharedCols(a, b pvc.Schema) []string {
	var out []string
	for _, c := range a {
		if b.Index(c.Name) >= 0 {
			out = append(out, c.Name)
		}
	}
	return out
}

func setAll(s map[string]bool, names ...string) {
	for _, n := range names {
		s[n] = true
	}
}
