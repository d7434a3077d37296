package engine

import (
	"fmt"

	"pvcagg/internal/algebra"
	"pvcagg/internal/pvc"
)

// InferSchema computes the output schema of a plan without evaluating it,
// applying the static checks iterBuilder applies when it builds the
// operators (TestInferSchemaMatchesEval holds the two together). The
// binder and the optimizer use it to resolve column references and to
// decide which rewrites are schema-preserving.
func InferSchema(p Plan, db *pvc.Database) (pvc.Schema, error) {
	switch n := p.(type) {
	case *Scan:
		s, err := db.Schema(n.Table)
		if err != nil {
			return nil, err
		}
		return s.Clone(), nil
	case *Rename:
		in, err := InferSchema(n.Input, db)
		if err != nil {
			return nil, err
		}
		i := in.Index(n.From)
		if i < 0 {
			return nil, fmt.Errorf("engine: δ: unknown column %q in %s", n.From, n.Input)
		}
		if in.Index(n.To) >= 0 {
			return nil, fmt.Errorf("engine: δ: column %q already exists", n.To)
		}
		out := in.Clone()
		out[i].Name = n.To
		return out, nil
	case *Select:
		in, err := InferSchema(n.Input, db)
		if err != nil {
			return nil, err
		}
		for _, a := range n.Pred.Atoms {
			if in.Index(a.Left) < 0 {
				return nil, fmt.Errorf("engine: σ: unknown column %q", a.Left)
			}
			if a.RightVal == nil && in.Index(a.RightCol) < 0 {
				return nil, fmt.Errorf("engine: σ: unknown column %q", a.RightCol)
			}
		}
		return in, nil
	case *Project:
		in, err := InferSchema(n.Input, db)
		if err != nil {
			return nil, err
		}
		out := make(pvc.Schema, len(n.Cols))
		for i, c := range n.Cols {
			j := in.Index(c)
			if j < 0 {
				return nil, fmt.Errorf("engine: π: unknown column %q", c)
			}
			if in[j].Type == pvc.TModule {
				return nil, fmt.Errorf("engine: π: column %q is an aggregation attribute (Definition 5 constraint 1)", c)
			}
			out[i] = in[j]
		}
		return out, nil
	case *Prune:
		in, err := InferSchema(n.Input, db)
		if err != nil {
			return nil, err
		}
		out := make(pvc.Schema, len(n.Cols))
		for i, c := range n.Cols {
			j := in.Index(c)
			if j < 0 {
				return nil, fmt.Errorf("engine: π̂: unknown column %q", c)
			}
			out[i] = in[j]
		}
		return out, nil
	case *Product:
		l, err := InferSchema(n.L, db)
		if err != nil {
			return nil, err
		}
		r, err := InferSchema(n.R, db)
		if err != nil {
			return nil, err
		}
		for _, c := range r {
			if l.Index(c.Name) >= 0 {
				return nil, fmt.Errorf("engine: ×: duplicate column %q (rename first)", c.Name)
			}
		}
		return append(l.Clone(), r...), nil
	case *Join:
		l, err := InferSchema(n.L, db)
		if err != nil {
			return nil, err
		}
		r, err := InferSchema(n.R, db)
		if err != nil {
			return nil, err
		}
		out := l.Clone()
		for _, c := range r {
			if j := l.Index(c.Name); j >= 0 {
				if c.Type == pvc.TModule || l[j].Type == pvc.TModule {
					return nil, fmt.Errorf("engine: ⋈: aggregation column %q cannot be a join key", c.Name)
				}
				continue
			}
			out = append(out, c)
		}
		return out, nil
	case *Union:
		l, err := InferSchema(n.L, db)
		if err != nil {
			return nil, err
		}
		r, err := InferSchema(n.R, db)
		if err != nil {
			return nil, err
		}
		if !l.Equal(r) {
			return nil, fmt.Errorf("engine: ∪: incompatible schemas %v and %v", l.Names(), r.Names())
		}
		for _, c := range l {
			if c.Type == pvc.TModule {
				return nil, fmt.Errorf("engine: ∪: aggregation column %q (Definition 5 constraint 2)", c.Name)
			}
		}
		return l, nil
	case *GroupAgg:
		in, err := InferSchema(n.Input, db)
		if err != nil {
			return nil, err
		}
		out := make(pvc.Schema, 0, len(n.GroupBy)+len(n.Aggs))
		for _, g := range n.GroupBy {
			j := in.Index(g)
			if j < 0 {
				return nil, fmt.Errorf("engine: $: unknown group-by column %q", g)
			}
			if in[j].Type == pvc.TModule {
				return nil, fmt.Errorf("engine: $: group-by column %q is an aggregation attribute", g)
			}
			out = append(out, in[j])
		}
		for _, a := range n.Aggs {
			if a.Agg != algebra.Count {
				j := in.Index(a.Over)
				if j < 0 {
					return nil, fmt.Errorf("engine: $: unknown aggregation column %q", a.Over)
				}
				if in[j].Type != pvc.TValue {
					return nil, fmt.Errorf("engine: $: aggregation over non-value column %q", a.Over)
				}
			}
			out = append(out, pvc.Col{Name: a.Out, Type: pvc.TModule, Agg: a.Agg})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("engine: InferSchema: unsupported operator %T", p)
	}
}
