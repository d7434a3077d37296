// Package gen generates the random conditional expressions of the paper's
// Section 7.1, Eq. (11):
//
//	[ Σ_AGGL Φi ⊗ vi  θ  Σ_AGGR Ψj ⊗ wj ]   (two-sided, R > 0)
//	[ Σ_AGGL Φi ⊗ vi  θ  c ]                (one-sided,  R = 0)
//
// over Boolean random variables, parameterised exactly like the paper's
// experiments: L and R are the numbers of semimodule terms on each side of
// θ, each Φi (Ψj) has NumClauses clauses of NumLiterals positive literals
// drawn from NumVars distinct variables, and the aggregated values vi, wj
// are uniform in [0, MaxV].
package gen

import (
	"fmt"
	"math/rand"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// Params mirrors the experiment parameters of Section 7.1.
type Params struct {
	L, R        int         // semimodule terms left/right of θ (R = 0: compare against C)
	NumVars     int         // #v distinct variables
	NumClauses  int         // #cl clauses per term
	NumLiterals int         // #l positive literals per clause
	MaxV        int64       // values vi, wj drawn from [0, MaxV]
	AggL, AggR  algebra.Agg // aggregation monoids
	Theta       value.Theta // comparison operator
	C           int64       // right-side constant when R = 0
	VarProb     float64     // marginal probability of each variable (0 ⇒ 0.5)
	Seed        int64       // deterministic generator seed
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.L <= 0 {
		return fmt.Errorf("gen: L must be positive, got %d", p.L)
	}
	if p.R < 0 {
		return fmt.Errorf("gen: R must be non-negative, got %d", p.R)
	}
	if p.NumVars <= 0 || p.NumClauses <= 0 || p.NumLiterals <= 0 {
		return fmt.Errorf("gen: #v, #cl, #l must be positive (%d, %d, %d)", p.NumVars, p.NumClauses, p.NumLiterals)
	}
	if p.MaxV < 0 {
		return fmt.Errorf("gen: maxv must be non-negative, got %d", p.MaxV)
	}
	if p.VarProb < 0 || p.VarProb > 1 {
		return fmt.Errorf("gen: variable probability %v out of range", p.VarProb)
	}
	return nil
}

// Instance is one generated expression with the registry declaring its
// variables.
type Instance struct {
	Expr     expr.Expr
	Registry *vars.Registry
	Params   Params
}

// SeededRand returns an explicitly seeded random source. All generators in
// this package (and the tests built on them) draw from such sources only —
// never from math/rand's global state — so every generated instance is
// reproducible from a logged seed.
func SeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// New generates one random conditional expression per Eq. (11),
// deterministically from p.Seed.
func New(p Params) (Instance, error) {
	return NewWithRand(p, SeededRand(p.Seed))
}

// NewWithRand is New drawing randomness from an explicitly seeded source,
// so differential and fuzz tests are reproducible from a logged seed.
// p.Seed is ignored.
func NewWithRand(p Params, rng *rand.Rand) (Instance, error) {
	if err := p.Validate(); err != nil {
		return Instance{}, err
	}
	reg := vars.NewRegistry()
	prob := p.VarProb
	if prob == 0 {
		prob = 0.5
	}
	names := make([]string, p.NumVars)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
		reg.DeclareBool(names[i], prob)
	}
	left := side(rng, p, names, p.AggL, p.L)
	var right expr.Expr
	if p.R == 0 {
		right = expr.MConst{V: value.Int(p.C)}
	} else {
		right = side(rng, p, names, p.AggR, p.R)
	}
	e := expr.Compare(p.Theta, left, right)
	if err := expr.Validate(e); err != nil {
		return Instance{}, err
	}
	return Instance{Expr: e, Registry: reg, Params: p}, nil
}

// MustNew is New for parameters known valid: fixed test instances, such
// as those of the Section 7 shape tests (paper_test.go).
func MustNew(p Params) Instance {
	inst, err := New(p)
	if err != nil {
		panic(err)
	}
	return inst
}

// side builds Σ_agg Φi ⊗ vi with n terms.
func side(rng *rand.Rand, p Params, names []string, agg algebra.Agg, n int) expr.Expr {
	terms := make([]expr.Expr, n)
	for i := range terms {
		v := value.Int(rng.Int63n(p.MaxV + 1))
		if agg == algebra.Count {
			v = value.Int(1)
		}
		terms[i] = expr.Scale(agg, formula(rng, p, names), v)
	}
	return expr.MSum(agg, terms...)
}

// formula builds Φi: a disjunction of NumClauses clauses, each a product
// of NumLiterals positive literals.
func formula(rng *rand.Rand, p Params, names []string) expr.Expr {
	clauses := make([]expr.Expr, p.NumClauses)
	for i := range clauses {
		lits := make([]expr.Expr, p.NumLiterals)
		for j := range lits {
			lits[j] = expr.V(names[rng.Intn(len(names))])
		}
		clauses[i] = expr.Product(lits...)
	}
	return expr.Sum(clauses...)
}
