package engine

import (
	"fmt"

	"pvcagg/internal/algebra"
	"pvcagg/internal/pvc"
)

// opShape is one operator's schema rule applied to the schemas of its
// inputs: the output schema and the input positions the operator reads.
type opShape struct {
	schema pvc.Schema
	cols   []int       // π, ∪, π̂: the kept input columns; $: the group-by columns
	atoms  []selAtom   // σ
	lKey   []int       // ⋈: the shared columns' positions in the left input, in right-input order
	rKey   []int       // ⋈: … and in the right input
	rCols  []int       // ⋈, ×: the right input's columns appended to the left's
	aggs   []aggColRef // $
}

// shapeOf applies the schema rule of operator p, with its static checks
// (Definition 5's constraints among them), to the schemas of p's inputs
// in Children order. It is the one statement of each rule: InferSchema
// keeps the schema, and the iterator builder the positions too — which
// is why an unknown column is an error even over empty inputs.
func shapeOf(p Plan, in []pvc.Schema) (opShape, error) {
	switch n := p.(type) {
	case *Rename:
		i := in[0].Index(n.From)
		if i < 0 {
			return opShape{}, fmt.Errorf("engine: δ: unknown column %q in %s", n.From, n.Input)
		}
		if in[0].Index(n.To) >= 0 {
			return opShape{}, fmt.Errorf("engine: δ: column %q already exists", n.To)
		}
		out := in[0].Clone()
		out[i].Name = n.To
		return opShape{schema: out}, nil
	case *Select:
		atoms, err := resolveSelAtoms(n.Pred, in[0])
		if err != nil {
			return opShape{}, err
		}
		return opShape{schema: in[0], atoms: atoms}, nil
	case *Project:
		return projection("π", n.Cols, in[0], true)
	case *Prune:
		return projection("π̂", n.Cols, in[0], false)
	case *Join:
		return pairShape(in[0], in[1], true)
	case *Product:
		return pairShape(in[0], in[1], false)
	case *Union:
		l, r := in[0], in[1]
		if !l.Equal(r) {
			return opShape{}, fmt.Errorf("engine: ∪: incompatible schemas %v and %v", l.Names(), r.Names())
		}
		cols := make([]int, len(l))
		for i, c := range l {
			if c.Type == pvc.TModule {
				return opShape{}, fmt.Errorf("engine: ∪: aggregation column %q (Definition 5 constraint 2)", c.Name)
			}
			cols[i] = i
		}
		return opShape{schema: l, cols: cols}, nil
	case *GroupAgg:
		sh, err := projection("$", n.GroupBy, in[0], true)
		if err != nil {
			return opShape{}, err
		}
		sh.aggs = make([]aggColRef, len(n.Aggs))
		for i, a := range n.Aggs {
			j := -1
			if a.Agg != algebra.Count {
				if j = in[0].Index(a.Over); j < 0 {
					return opShape{}, fmt.Errorf("engine: $: unknown aggregation column %q", a.Over)
				}
				if in[0][j].Type != pvc.TValue {
					return opShape{}, fmt.Errorf("engine: $: aggregation over non-value column %q", a.Over)
				}
			}
			sh.aggs[i] = aggColRef{a, j}
			sh.schema = append(sh.schema, pvc.Col{Name: a.Out, Type: pvc.TModule, Agg: a.Agg})
		}
		return sh, nil
	}
	return opShape{}, fmt.Errorf("engine: unsupported plan node %T", p)
}

// projection is the rule of π, π̂ and $'s grouping: the named input
// columns in order. π and $ group by them, so they must be constant
// columns; π̂ may keep aggregation columns.
func projection(op string, names []string, in pvc.Schema, grouping bool) (opShape, error) {
	sh := opShape{schema: make(pvc.Schema, len(names)), cols: make([]int, len(names))}
	for i, c := range names {
		j := in.Index(c)
		if j < 0 {
			return opShape{}, fmt.Errorf("engine: %s: unknown column %q", op, c)
		}
		if grouping && in[j].Type == pvc.TModule {
			return opShape{}, fmt.Errorf("engine: %s: cannot group by aggregation column %q", op, c)
		}
		sh.schema[i], sh.cols[i] = in[j], j
	}
	return sh, nil
}

// pairShape is the rule of ⋈ (join set) and ×: the left columns, then
// the right ones a natural join does not share. Join keys must be
// constant columns; a product's inputs must not share a name.
func pairShape(l, r pvc.Schema, join bool) (opShape, error) {
	sh := opShape{schema: append(make(pvc.Schema, 0, len(l)+len(r)), l...), rCols: make([]int, 0, len(r))}
	for j, c := range r {
		i := l.Index(c.Name)
		switch {
		case i < 0:
			sh.schema = append(sh.schema, c)
			sh.rCols = append(sh.rCols, j)
		case !join:
			return opShape{}, fmt.Errorf("engine: ×: duplicate column %q (rename first)", c.Name)
		case c.Type == pvc.TModule || l[i].Type == pvc.TModule:
			return opShape{}, fmt.Errorf("engine: ⋈: aggregation column %q cannot be a join key", c.Name)
		default:
			sh.lKey = append(sh.lKey, i)
			sh.rKey = append(sh.rKey, j)
		}
	}
	return sh, nil
}

// InferSchema computes the output schema of a plan without evaluating it,
// applying the same rule per operator, and so the same static checks, as
// the iterator builder. The binder and the optimizer use it to resolve
// column references and to decide which rewrites are schema-preserving.
func InferSchema(p Plan, db *pvc.Database) (pvc.Schema, error) {
	if n, ok := p.(*Scan); ok {
		s, err := db.Schema(n.Table)
		if err != nil {
			return nil, err
		}
		return s.Clone(), nil
	}
	kids := Children(p)
	in := make([]pvc.Schema, 0, 2)[:len(kids)] // on the stack: ⋈, × and ∪ have two inputs
	for i, k := range kids {
		s, err := InferSchema(k, db)
		if err != nil {
			return nil, err
		}
		in[i] = s
	}
	sh, err := shapeOf(p, in)
	return sh.schema, err
}
