// Package tractable implements the syntactic tractability analysis of the
// paper's Section 6: the hierarchical property for non-repeating queries
// and the classification of aggregate queries into the polynomial-time
// classes Qind (results are tuple-independent) and Qhie (results may be
// correlated but compile to polynomial d-trees), per Definitions 8 and 9
// and Theorem 3.
package tractable

import (
	"fmt"
	"sort"
	"strings"

	"pvcagg/internal/engine"
	"pvcagg/internal/pvc"
)

// Class is the tractability class assigned to a plan.
type Class int

const (
	// Hard means the analysis could not place the query in Qind or Qhie;
	// evaluation may require Shannon expansion (possibly exponential).
	Hard Class = iota
	// Ind means the query is in Qind: result tuples are pairwise
	// independent (Definition 8).
	Ind
	// Hie means the query is in Qhie: polynomial-time data complexity by
	// Theorem 3 (Definition 9).
	Hie
)

func (c Class) String() string {
	switch c {
	case Ind:
		return "Qind"
	case Hie:
		return "Qhie"
	default:
		return "hard"
	}
}

// Verdict is the analysis result: the class and a human-readable reason.
type Verdict struct {
	Class  Class
	Reason string
}

// Classify analyses a plan against the database schema. Scan leaves are
// assumed tuple-independent (each base tuple annotated with its own
// variable), which InsertIndependent guarantees.
func Classify(p engine.Plan, db *pvc.Database) Verdict {
	switch n := p.(type) {
	case *engine.Scan:
		return Verdict{Ind, fmt.Sprintf("%s is a tuple-independent relation (Def. 8.1)", n.Table)}
	case *engine.Rename:
		return Classify(n.Input, db)
	case *engine.Prune:
		// π̂ narrows columns without touching tuples or annotations, so
		// the input's class carries over unchanged. The dropped attributes
		// stay existential in the hierarchical analysis (conservative).
		return Classify(n.Input, db)
	case *engine.GroupAgg:
		// Def. 9.1: $Ā;γ←AGG(C)[σψ(Q1×…×Qn)] with πĀσψ(…) hierarchical.
		body, err := flatten(n.Input, db)
		if err != nil {
			return Verdict{Hard, err.Error()}
		}
		if !allInd(body) {
			return Verdict{Hard, "aggregation over a non-Qind body"}
		}
		if h, why := body.hierarchical(n.GroupBy); h {
			if len(n.GroupBy) == 0 {
				return Verdict{Hie, "global aggregation over a hierarchical body (Def. 9.1, Ré-Suciu case)"}
			}
			return Verdict{Hie, "grouped aggregation over a hierarchical body (Def. 9.1)"}
		} else if why != "" {
			return Verdict{Hard, why}
		}
		return Verdict{Hard, "aggregation body is not hierarchical"}
	case *engine.Project, *engine.Select:
		body, err := flatten(p, db)
		if err != nil {
			return Verdict{Hard, err.Error()}
		}
		// Def. 8.2(a): πĀ σφ(Q̃1), a selection over a single aggregated
		// Qind sub-query.
		if body.aggInput != nil {
			inner := Classify(body.aggInput.Input, db)
			if inner.Class != Ind {
				return Verdict{Hard, "aggregation input not in Qind"}
			}
			// The class is tractable in the paper through the joint
			// distribution of the group's aggregates; the compiler has no
			// joint node, and decides one comparison against a constant
			// (compile/prune.go) but expands a product of two, or a
			// comparison of two aggregates, world by world. Say so
			// (contract_test.go holds every other verdict to the node
			// bound that Auto compiles each tuple under).
			if n := body.aggComparisons(); n > 1 {
				return Verdict{Hard, fmt.Sprintf("selection reads aggregates %d times: polynomial only through their joint distribution (Def. 8.2a), which the compiler does not build", n)}
			}
			return Verdict{Ind, "selection over one aggregated Qind sub-query (Def. 8.2a)"}
		}
		if !allInd(body) {
			return Verdict{Hard, "non-Qind sub-query under π/σ"}
		}
		h, why := body.hierarchical(body.projected)
		if !h {
			if why == "" {
				why = "query is not hierarchical"
			}
			return Verdict{Hard, why}
		}
		if body.allRoots(body.projected) {
			return Verdict{Ind, "hierarchical with root projection attributes (Def. 8.2b)"}
		}
		return Verdict{Hie, "non-repeating hierarchical query (Def. 9.2)"}
	case *engine.Join, *engine.Product:
		body, err := flatten(p, db)
		if err != nil {
			return Verdict{Hard, err.Error()}
		}
		if !allInd(body) {
			return Verdict{Hard, "non-Qind sub-query under ×/⋈"}
		}
		if h, _ := body.hierarchical(body.allAttrs()); h {
			return Verdict{Ind, "join of tuple-independent relations keeping all attributes"}
		}
		return Verdict{Hard, "join is not hierarchical"}
	case *engine.Union:
		l, r := Classify(n.L, db), Classify(n.R, db)
		if l.Class == Hard || r.Class == Hard {
			return Verdict{Hard, "union with a hard branch"}
		}
		// Branches over disjoint relations contribute independent
		// summands. A shared relation correlates them, and a union of
		// hierarchical queries need not be hierarchical:
		// π∅(R ⋈ S) ∪ π∅(S ⋈ T) is the #P-hard chain query.
		left := map[string]bool{}
		tables(n.L, left)
		right := map[string]bool{}
		tables(n.R, right)
		var shared []string
		for t := range right {
			if left[t] {
				shared = append(shared, t)
			}
		}
		if len(shared) > 0 {
			sort.Strings(shared)
			return Verdict{Hard, fmt.Sprintf("union branches share %s (repeated relation symbol)", strings.Join(shared, ", "))}
		}
		return Verdict{Hie, "union of tractable sub-queries"}
	default:
		return Verdict{Hard, fmt.Sprintf("unsupported operator %T", p)}
	}
}

// tables adds the base relations p scans to into.
func tables(p engine.Plan, into map[string]bool) {
	if s, ok := p.(*engine.Scan); ok {
		into[s.Table] = true
	}
	for _, k := range engine.Children(p) {
		tables(k, into)
	}
}

// relInfo is one base relation occurrence in a flattened join tree.
type relInfo struct {
	name  string
	attrs map[string]bool
}

// flatQuery is the normal form πĀ σφ(R1 × … × Rn) used by the
// hierarchical test.
type flatQuery struct {
	rels      []relInfo
	projected []string
	eq        *unionFind // attribute equivalence classes from joins and φ
	constant  map[string]bool
	repeated  bool // a base relation occurs more than once
	subVerd   []Verdict
	aggInput  *engine.GroupAgg // set when the body is a single $ sub-query
	aggCols   map[string]bool  // aggInput's aggregation columns, by their names at the top
	selCols   []string         // the columns σ atoms above aggInput read, by their names at the top
}

// aggComparisons counts the reads of aggregation columns by the σ atoms
// above the aggregated sub-query: an atom against a constant or a group
// attribute reads one, an atom between two aggregates two.
func (q *flatQuery) aggComparisons() int {
	n := 0
	for _, c := range q.selCols {
		if q.aggCols[c] {
			n++
		}
	}
	return n
}

func allInd(q *flatQuery) bool {
	for _, v := range q.subVerd {
		if v.Class != Ind {
			return false
		}
	}
	return !q.repeated
}

func (q *flatQuery) allAttrs() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range q.rels {
		for a := range r.attrs {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	sort.Strings(out)
	return out
}

// at returns the set of relation indexes containing an attribute equated
// with a (the paper's at(A*)).
func (q *flatQuery) at(a string) map[int]bool {
	out := map[int]bool{}
	for i, r := range q.rels {
		for b := range r.attrs {
			if q.eq.same(a, b) {
				out[i] = true
				break
			}
		}
	}
	return out
}

// hierarchical checks the generalised hierarchical property: for every two
// attributes not in the head and not bound to a constant, at(A*) and
// at(B*) are disjoint or one contains the other.
func (q *flatQuery) hierarchical(head []string) (bool, string) {
	if q.repeated {
		return false, "repeated relation symbol (query must be non-repeating)"
	}
	headSet := map[string]bool{}
	for _, h := range head {
		headSet[h] = true
	}
	inHead := func(a string) bool {
		for h := range headSet {
			if q.eq.same(a, h) {
				return true
			}
		}
		return false
	}
	attrs := q.allAttrs()
	var existential []string
	for _, a := range attrs {
		if inHead(a) || q.isConst(a) {
			continue
		}
		existential = append(existential, a)
	}
	for i := 0; i < len(existential); i++ {
		for j := i + 1; j < len(existential); j++ {
			a, b := existential[i], existential[j]
			if q.eq.same(a, b) {
				continue
			}
			sa, sb := q.at(a), q.at(b)
			if !related(sa, sb) {
				return false, fmt.Sprintf("attributes %s and %s violate the hierarchical property: at(%s*)=%v, at(%s*)=%v overlap without containment",
					a, b, a, keys(sa), b, keys(sb))
			}
		}
	}
	return true, ""
}

// allRoots reports whether every head attribute is a root attribute: its
// class appears in every relation.
func (q *flatQuery) allRoots(head []string) bool {
	for _, a := range head {
		if len(q.at(a)) != len(q.rels) {
			return false
		}
	}
	return true
}

func (q *flatQuery) isConst(a string) bool {
	for c := range q.constant {
		if q.eq.same(a, c) {
			return true
		}
	}
	return false
}

func related(a, b map[int]bool) bool {
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	return inter == 0 || inter == len(a) || inter == len(b)
}

func keys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// flatten normalises a plan into πĀ σφ(R1 × … × Rn) form, collecting
// attribute equalities from natural joins and selection atoms. Sub-queries
// that are not part of the product tree (aggregations, unions) are
// classified recursively.
func flatten(p engine.Plan, db *pvc.Database) (*flatQuery, error) {
	q := &flatQuery{eq: newUnionFind(), constant: map[string]bool{}}
	rename := map[string]string{}
	if err := q.walk(p, db, rename, true); err != nil {
		return nil, err
	}
	return q, nil
}

func (q *flatQuery) walk(p engine.Plan, db *pvc.Database, rename map[string]string, top bool) error {
	atTop := func(name string) string {
		if to, ok := rename[name]; ok {
			return to
		}
		return name
	}
	switch n := p.(type) {
	case *engine.Scan:
		schema, err := db.Schema(n.Table)
		if err != nil {
			return err
		}
		for _, ri := range q.rels {
			if ri.name == n.Table {
				q.repeated = true
			}
		}
		attrs := map[string]bool{}
		for _, c := range schema {
			attrs[atTop(c.Name)] = true
		}
		q.rels = append(q.rels, relInfo{name: n.Table, attrs: attrs})
		return nil
	case *engine.Rename:
		inner := map[string]string{}
		for k, v := range rename {
			inner[k] = v
		}
		if to, ok := inner[n.To]; ok {
			inner[n.From] = to
		} else {
			inner[n.From] = n.To
		}
		return q.walk(n.Input, db, inner, top)
	case *engine.Join:
		// Natural join: shared attribute names are already identical,
		// which the name-based equivalence classes capture.
		if err := q.walk(n.L, db, rename, false); err != nil {
			return err
		}
		return q.walk(n.R, db, rename, false)
	case *engine.Product:
		if err := q.walk(n.L, db, rename, false); err != nil {
			return err
		}
		return q.walk(n.R, db, rename, false)
	case *engine.Select:
		for _, a := range n.Pred.Atoms {
			if top {
				q.selCols = append(q.selCols, atTop(a.Left))
				if a.RightCol != "" {
					q.selCols = append(q.selCols, atTop(a.RightCol))
				}
			}
			switch {
			case a.RightVal != nil:
				q.constant[a.Left] = true
			case a.Th.String() == "=":
				q.eq.union(a.Left, a.RightCol)
			}
		}
		return q.walk(n.Input, db, rename, top)
	case *engine.Project:
		if top && q.projected == nil {
			q.projected = append([]string(nil), n.Cols...)
		}
		return q.walk(n.Input, db, rename, top)
	case *engine.Prune:
		// Annotation-transparent; the pruned attributes remain existential.
		return q.walk(n.Input, db, rename, top)
	case *engine.GroupAgg:
		if top && q.aggInput == nil && len(q.rels) == 0 {
			q.aggInput = n
			q.aggCols = map[string]bool{}
			for _, a := range n.Aggs {
				q.aggCols[atTop(a.Out)] = true
			}
			return nil
		}
		v := Classify(n, db)
		q.subVerd = append(q.subVerd, v)
		// Treat the aggregated sub-query as an opaque relation over its
		// output attributes.
		attrs := map[string]bool{}
		for _, g := range n.GroupBy {
			attrs[g] = true
		}
		for _, a := range n.Aggs {
			attrs[a.Out] = true
		}
		q.rels = append(q.rels, relInfo{name: n.String(), attrs: attrs})
		return nil
	default:
		v := Classify(p, db)
		q.subVerd = append(q.subVerd, v)
		q.rels = append(q.rels, relInfo{name: p.String(), attrs: map[string]bool{}})
		return nil
	}
}

// unionFind over attribute names.
type unionFind struct{ parent map[string]string }

func newUnionFind() *unionFind { return &unionFind{parent: map[string]string{}} }

func (u *unionFind) find(x string) string {
	p, ok := u.parent[x]
	if !ok || p == x {
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

func (u *unionFind) same(a, b string) bool { return a == b || u.find(a) == u.find(b) }
