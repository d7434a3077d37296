// Package vars implements the finite set X of independent S-valued random
// variables that generates the probability space Ω of Definition 1, with
// per-variable discrete distributions, world enumeration and sampling.
package vars

import (
	"fmt"
	"math/rand"
	"sort"

	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
)

// ID is the dense interned identity of a variable (see expr.Intern).
type ID = expr.VarID

// Registry maps variable names to their probability distributions. It is
// the concrete X of the paper; all expressions over a registry share its
// induced probability space. Distributions are stored in a slice indexed
// by the interned variable ID, so the compilation hot path (Shannon
// expansion, pruning bounds) resolves a variable with one slice load
// instead of a string-keyed map lookup.
type Registry struct {
	byID  []prob.Dist // indexed by ID; Size() == 0 ⇒ undeclared
	order []ID        // insertion order, for deterministic enumeration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Declare registers variable x with distribution d. Re-declaring a
// variable replaces its distribution.
func (r *Registry) Declare(x string, d prob.Dist) {
	if d.Size() == 0 {
		panic(fmt.Sprintf("vars: variable %q declared with empty distribution", x))
	}
	id := expr.Intern(x)
	if int(id) >= len(r.byID) {
		// Extend via append so growth amortises (fresh-variable-per-tuple
		// loaders declare densely increasing IDs; exact-fit reallocation
		// would copy the slice on every declaration).
		r.byID = append(r.byID, make([]prob.Dist, int(id)+1-len(r.byID))...)
	}
	if r.byID[id].Size() == 0 {
		r.order = append(r.order, id)
	}
	r.byID[id] = d
}

// DeclareBool registers a Boolean variable with P[⊤] = p.
func (r *Registry) DeclareBool(x string, p float64) {
	r.Declare(x, prob.Bernoulli(p))
}

// Dist returns the distribution of x.
func (r *Registry) Dist(x string) (prob.Dist, error) {
	return r.DistByID(expr.Intern(x))
}

// DistByID returns the distribution of the variable with interned ID id —
// the hot-path form of Dist.
func (r *Registry) DistByID(id ID) (prob.Dist, error) {
	if int(id) < len(r.byID) {
		if d := r.byID[id]; d.Size() > 0 {
			return d, nil
		}
	}
	return prob.Dist{}, fmt.Errorf("vars: undeclared variable %q", expr.VarName(id))
}

// MustDist is Dist for variables known to be declared.
func (r *Registry) MustDist(x string) prob.Dist {
	d, err := r.Dist(x)
	if err != nil {
		panic(err)
	}
	return d
}

// Has reports whether x is declared.
func (r *Registry) Has(x string) bool {
	return r.HasID(expr.Intern(x))
}

// HasID reports whether the variable with interned ID id is declared.
func (r *Registry) HasID(id ID) bool {
	return int(id) < len(r.byID) && r.byID[id].Size() > 0
}

// Names returns all declared variables in declaration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	for i, id := range r.order {
		out[i] = expr.VarName(id)
	}
	return out
}

// Len returns the number of declared variables.
func (r *Registry) Len() int { return len(r.order) }

// CheckDeclared verifies that every variable of e is declared: one walk
// over e testing each occurrence's interned ID against the registry's
// table, without allocating. Only the failing path collects names, to
// report the alphabetically first undeclared one.
func (r *Registry) CheckDeclared(e expr.Expr) error {
	id, found := expr.FindVar(e, r.undeclared)
	if !found {
		return nil
	}
	name := expr.VarName(id)
	for _, x := range expr.Vars(e) { // sorted
		if !r.Has(x) {
			name = x
			break
		}
	}
	return fmt.Errorf("vars: expression uses undeclared variable %q", name)
}

func (r *Registry) undeclared(id ID) bool { return !r.HasID(id) }

// Fresh returns a variable name of the form prefix#n that is not yet
// declared, declares it with distribution d, and returns the name. It is
// used by tuple-independent table constructors.
func (r *Registry) Fresh(prefix string, d prob.Dist) string {
	for i := len(r.order); ; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		if !r.Has(name) {
			r.Declare(name, d)
			return name
		}
	}
}

// ReduceToBoolean returns a registry in which every variable distribution
// is reduced to a Boolean one: P[⊥] = Px[0] and P[⊤] = 1 − Px[0]. This is
// the reduction of Proposition 2 that preserves the distribution of
// MIN/MAX semimodule expressions over N-valued variables.
func (r *Registry) ReduceToBoolean() *Registry {
	out := NewRegistry()
	for _, id := range r.order {
		d := r.byID[id]
		p0 := d.P(value.Int(0))
		out.Declare(expr.VarName(id), prob.FromPairs([]prob.Pair{
			{V: value.Bool(false), P: p0},
			{V: value.Bool(true), P: 1 - p0},
		}))
	}
	return out
}

// Enumerate calls f with every valuation ν ∈ Ω restricted to the given
// variables, together with its probability Pr(ν) = Π Px[ν(x)]
// (Definition 1). The number of worlds is the product of the support
// sizes; callers are responsible for keeping it small. Variables are
// enumerated in sorted order for determinism. Enumerate returns an error
// for undeclared variables.
func (r *Registry) Enumerate(variables []string, f func(nu expr.Valuation, p float64)) error {
	vs := append([]string(nil), variables...)
	sort.Strings(vs)
	dists := make([]prob.Dist, len(vs))
	for i, x := range vs {
		d, err := r.Dist(x)
		if err != nil {
			return err
		}
		dists[i] = d
	}
	nu := expr.Valuation{}
	var rec func(i int, p float64)
	rec = func(i int, p float64) {
		if i == len(vs) {
			f(nu, p)
			return
		}
		for _, pair := range dists[i].Pairs() {
			nu[vs[i]] = pair.V
			rec(i+1, p*pair.P)
		}
	}
	rec(0, 1)
	return nil
}

// Sample draws one valuation of the given variables using rng: one
// rng.Float64() per variable, in the order given. It defines the draw —
// worlds.Sampler builds its tables to reproduce it bit for bit, and the
// reference loop of that package's tests is its only caller.
func (r *Registry) Sample(variables []string, rng *rand.Rand) (expr.Valuation, error) {
	nu := expr.Valuation{}
	for _, x := range variables {
		d, err := r.Dist(x)
		if err != nil {
			return nil, err
		}
		u := rng.Float64() * d.Mass()
		acc := 0.0
		pairs := d.Pairs()
		nu[x] = pairs[len(pairs)-1].V
		for _, p := range pairs {
			acc += p.P
			if u < acc {
				nu[x] = p.V
				break
			}
		}
	}
	return nu, nil
}

// WorldCount returns the number of possible worlds over the given
// variables (the product of support sizes), saturating at maxInt.
func (r *Registry) WorldCount(variables []string) int {
	n := 1
	for _, x := range variables {
		if !r.Has(x) {
			continue
		}
		n *= r.MustDist(x).Size()
		if n < 0 || n > 1<<40 {
			return 1 << 40
		}
	}
	return n
}
