package value

import "fmt"

// Theta is a binary comparison relation θ from the grammar of paper
// Figure 2: one of =, ≠, ≤, ≥, <, >.
type Theta int

// The six comparison operators.
const (
	EQ Theta = iota // =
	NE              // ≠
	LE              // ≤
	GE              // ≥
	LT              // <
	GT              // >
)

// Apply evaluates a θ b in the total order of extended integers.
func (t Theta) Apply(a, b V) bool { return t.Holds(a.Cmp(b)) }

// Holds reports whether a θ b given cmp, the three-way comparison of a
// with b in whatever total order the operands live in (negative, zero or
// positive). Every θ evaluation in the module reduces to it.
func (t Theta) Holds(cmp int) bool {
	switch t {
	case EQ:
		return cmp == 0
	case NE:
		return cmp != 0
	case LE:
		return cmp <= 0
	case GE:
		return cmp >= 0
	case LT:
		return cmp < 0
	case GT:
		return cmp > 0
	default:
		panic(fmt.Sprintf("value: invalid Theta(%d)", int(t)))
	}
}

// Flip returns the comparison with swapped operands: a θ b iff b θ.Flip() a.
func (t Theta) Flip() Theta {
	switch t {
	case LE:
		return GE
	case GE:
		return LE
	case LT:
		return GT
	case GT:
		return LT
	default: // EQ, NE are symmetric
		return t
	}
}

// Negate returns the complement relation: a θ b iff !(a θ.Negate() b).
func (t Theta) Negate() Theta {
	switch t {
	case EQ:
		return NE
	case NE:
		return EQ
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	case LT:
		return GE
	default:
		panic(fmt.Sprintf("value: invalid Theta(%d)", int(t)))
	}
}

// String renders the operator in ASCII as accepted by ParseTheta.
func (t Theta) String() string {
	switch t {
	case EQ:
		return "="
	case NE:
		return "!="
	case LE:
		return "<="
	case GE:
		return ">="
	case LT:
		return "<"
	case GT:
		return ">"
	default:
		return fmt.Sprintf("Theta(%d)", int(t))
	}
}

// ParseTheta parses the ASCII and Unicode spellings of the six operators.
func ParseTheta(s string) (Theta, error) {
	switch s {
	case "=", "==":
		return EQ, nil
	case "!=", "<>", "≠":
		return NE, nil
	case "<=", "≤":
		return LE, nil
	case ">=", "≥":
		return GE, nil
	case "<":
		return LT, nil
	case ">":
		return GT, nil
	}
	return 0, fmt.Errorf("value: unknown comparison operator %q", s)
}
