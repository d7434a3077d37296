package expr

import (
	"errors"
	"fmt"
	"strings"
	"unicode"

	"pvcagg/internal/algebra"
	"pvcagg/internal/value"
)

// Parse parses the concrete expression syntax (also produced by String):
//
//	x1*y11*(z1 + z5)                      semiring expression
//	x*y @min 5                            semimodule term Φ ⊗ m
//	min(x*y @min 5, (x+z) @min 10)        semimodule sum α
//	[min(x @min 5, y @min 7) <= 6]        conditional expression [α θ c]
//	[x1*y11 + x2 != 0]                    conditional expression [Φ θ s]
//
// Aggregation names are min, max, sum, prod, count (case-insensitive).
// Numeric literals are coerced to the sort their position requires
// (monoid constants inside aggregation sums and on the constant side of a
// comparison against a semimodule expression). Input nested deeper than
// maxParseDepth parentheses, brackets and aggregation calls is rejected
// with ErrTooDeep.
func Parse(input string) (Expr, error) {
	p := &parser{lex: newLexer(input)}
	if err := p.next(); err != nil {
		return nil, err
	}
	e, err := p.parseTop()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("expr: unexpected trailing input %q at offset %d", p.tok.text, p.tok.pos)
	}
	e = coerce(e)
	if err := Validate(e); err != nil {
		return nil, err
	}
	return e, nil
}

// ErrTooDeep is wrapped by Parse's error for input nested deeper than
// maxParseDepth. The parser is recursive descent and its input arrives
// from disk (store annotation records) and from callers (ParseExpr):
// without the limit a megabyte of '(' is a fatal, unrecoverable stack
// overflow rather than an error.
var ErrTooDeep = errors.New("expression nested too deeply")

// maxParseDepth bounds the nesting Parse accepts. String renders one
// pair of delimiters per composite node, so everything the engine builds
// from a query plan (nesting of a few dozen) reads back with room to
// spare, and the recursion stays within a megabyte of stack.
const maxParseDepth = 1000

// MustParse is Parse for known-good literals in tests and examples.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber // integer, possibly signed infinity
	tokMNumber
	tokPlus
	tokStar
	tokAt // @agg
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokComma
	tokTheta
)

type token struct {
	kind tokKind
	text string
	pos  int
	v    value.V
	th   value.Theta
	agg  algebra.Agg
}

type lexer struct {
	in  string
	pos int
}

func newLexer(in string) *lexer { return &lexer{in: in} }

func (l *lexer) lex() (token, error) {
	for l.pos < len(l.in) && unicode.IsSpace(rune(l.in[l.pos])) {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.in) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.in[l.pos]
	switch {
	case c == '+':
		if strings.HasPrefix(l.in[l.pos:], "+inf") {
			l.pos += 4
			return token{kind: tokNumber, text: "+inf", pos: start, v: value.PosInf()}, nil
		}
		l.pos++
		return token{kind: tokPlus, text: "+", pos: start}, nil
	case c == '-':
		if strings.HasPrefix(l.in[l.pos:], "-inf") {
			l.pos += 4
			return token{kind: tokNumber, text: "-inf", pos: start, v: value.NegInf()}, nil
		}
		// negative integer literal
		end := l.pos + 1
		for end < len(l.in) && isDigit(l.in[end]) {
			end++
		}
		if end == l.pos+1 {
			return token{}, fmt.Errorf("expr: stray '-' at offset %d", start)
		}
		text := l.in[l.pos:end]
		l.pos = end
		v, err := value.Parse(text)
		if err != nil {
			return token{}, err
		}
		return token{kind: tokNumber, text: text, pos: start, v: v}, nil
	case c == '*':
		l.pos++
		return token{kind: tokStar, text: "*", pos: start}, nil
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == '[':
		l.pos++
		return token{kind: tokLBracket, text: "[", pos: start}, nil
	case c == ']':
		l.pos++
		return token{kind: tokRBracket, text: "]", pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == '@':
		l.pos++
		id := l.ident()
		if id == "" {
			return token{}, fmt.Errorf("expr: '@' must be followed by an aggregation name at offset %d", start)
		}
		agg, ok := algebra.ParseAgg(strings.ToUpper(id))
		if !ok {
			return token{}, fmt.Errorf("expr: unknown aggregation %q at offset %d", id, start)
		}
		return token{kind: tokAt, text: "@" + id, pos: start, agg: agg}, nil
	case c == '=' || c == '!' || c == '<' || c == '>':
		end := l.pos + 1
		if end < len(l.in) && (l.in[end] == '=' || l.in[end] == '>') {
			end++
		}
		text := l.in[l.pos:end]
		th, err := value.ParseTheta(text)
		if err != nil {
			return token{}, fmt.Errorf("expr: bad comparison %q at offset %d", text, start)
		}
		l.pos = end
		return token{kind: tokTheta, text: text, pos: start, th: th}, nil
	case isDigit(c):
		end := l.pos
		for end < len(l.in) && isDigit(l.in[end]) {
			end++
		}
		text := l.in[l.pos:end]
		l.pos = end
		v, err := value.Parse(text)
		if err != nil {
			return token{}, err
		}
		return token{kind: tokNumber, text: text, pos: start, v: v}, nil
	case isIdentStart(c):
		id := l.ident()
		if id == "m" && l.pos < len(l.in) && l.in[l.pos] == ':' {
			l.pos++
			rest := l.pos
			for l.pos < len(l.in) && (isDigit(l.in[l.pos]) || l.in[l.pos] == '+' || l.in[l.pos] == '-' || isIdentStart(l.in[l.pos])) {
				l.pos++
			}
			v, err := value.Parse(l.in[rest:l.pos])
			if err != nil {
				return token{}, fmt.Errorf("expr: bad monoid constant at offset %d: %v", start, err)
			}
			return token{kind: tokMNumber, text: l.in[start:l.pos], pos: start, v: v}, nil
		}
		switch id {
		case "inf":
			return token{kind: tokNumber, text: id, pos: start, v: value.PosInf()}, nil
		case "true":
			return token{kind: tokNumber, text: id, pos: start, v: value.Bool(true)}, nil
		case "false":
			return token{kind: tokNumber, text: id, pos: start, v: value.Bool(false)}, nil
		}
		return token{kind: tokIdent, text: id, pos: start}, nil
	default:
		return token{}, fmt.Errorf("expr: unexpected character %q at offset %d", c, start)
	}
}

func (l *lexer) ident() string {
	start := l.pos
	for l.pos < len(l.in) && isIdentPart(l.in[l.pos]) {
		l.pos++
	}
	return l.in[start:l.pos]
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }

type parser struct {
	lex   *lexer
	tok   token
	depth int // parseTop calls on the stack
}

func (p *parser) next() error {
	t, err := p.lex.lex()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// parseTop parses one nesting level, the one place the grammar recurses:
// the whole input, the inside of ( ) and [ ], and each argument of an
// aggregation call.
func (p *parser) parseTop() (Expr, error) {
	if p.depth > maxParseDepth {
		return nil, fmt.Errorf("expr: nesting deeper than %d at offset %d: %w", maxParseDepth, p.tok.pos, ErrTooDeep)
	}
	p.depth++
	e, err := p.parseTensor()
	p.depth--
	return e, err
}

// parseTensor parses addExpr optionally followed by a tensor '@agg modAtom'.
func (p *parser) parseTensor() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokAt {
		agg := p.tok.agg
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return NewTensor(agg, l, r), nil
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	t, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	terms := []Expr{t}
	for p.tok.kind == tokPlus {
		if err := p.next(); err != nil {
			return nil, err
		}
		t, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return newAdd(terms), nil
}

func (p *parser) parseMul() (Expr, error) {
	f, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	factors := []Expr{f}
	for p.tok.kind == tokStar {
		if err := p.next(); err != nil {
			return nil, err
		}
		f, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		factors = append(factors, f)
	}
	if len(factors) == 1 {
		return factors[0], nil
	}
	return newMul(factors), nil
}

func (p *parser) parseAtom() (Expr, error) {
	switch p.tok.kind {
	case tokNumber:
		v := p.tok.v
		if err := p.next(); err != nil {
			return nil, err
		}
		return Const{v}, nil
	case tokMNumber:
		v := p.tok.v
		if err := p.next(); err != nil {
			return nil, err
		}
		return MConst{v}, nil
	case tokIdent:
		name := p.tok.text
		pos := p.tok.pos
		if err := p.next(); err != nil {
			return nil, err
		}
		if agg, ok := algebra.ParseAgg(strings.ToUpper(name)); ok && p.tok.kind == tokLParen {
			return p.parseAggCall(agg)
		}
		if p.tok.kind == tokLParen {
			return nil, fmt.Errorf("expr: %q at offset %d is not an aggregation name", name, pos)
		}
		return V(name), nil
	case tokLParen:
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseTop()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("expr: expected ')' at offset %d, got %q", p.tok.pos, p.tok.text)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return e, nil
	case tokLBracket:
		if err := p.next(); err != nil {
			return nil, err
		}
		l, err := p.parseTop()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokTheta {
			return nil, fmt.Errorf("expr: expected comparison operator at offset %d, got %q", p.tok.pos, p.tok.text)
		}
		th := p.tok.th
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseTop()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRBracket {
			return nil, fmt.Errorf("expr: expected ']' at offset %d, got %q", p.tok.pos, p.tok.text)
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		return newCmp(th, l, r), nil
	default:
		return nil, fmt.Errorf("expr: unexpected token %q at offset %d", p.tok.text, p.tok.pos)
	}
}

func (p *parser) parseAggCall(agg algebra.Agg) (Expr, error) {
	// current token is '('
	if err := p.next(); err != nil {
		return nil, err
	}
	var terms []Expr
	for {
		t, err := p.parseTop()
		if err != nil {
			return nil, err
		}
		terms = append(terms, t)
		if p.tok.kind == tokComma {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if p.tok.kind != tokRParen {
		return nil, fmt.Errorf("expr: expected ')' at offset %d, got %q", p.tok.pos, p.tok.text)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	return newAggSum(agg, terms), nil
}

// coerce resolves the sort of numeric literals from their context: monoid
// positions turn Const into MConst, and tensors written without an
// explicit monoid inside an aggregation call inherit the call's monoid.
func coerce(e Expr) Expr {
	switch n := e.(type) {
	case Var, Const, MConst:
		return e
	case Add:
		return newAdd(coerceAll(n.Terms))
	case Mul:
		return newMul(coerceAll(n.Factors))
	case Tensor:
		return NewTensor(n.Agg, coerce(n.Scalar), toModule(coerce(n.Mod)))
	case AggSum:
		out := make([]Expr, len(n.Terms))
		for i, t := range n.Terms {
			out[i] = toModule(coerce(t))
		}
		return newAggSum(n.Agg, out)
	case Cmp:
		l, r := coerce(n.L), coerce(n.R)
		if l.Kind() == KindModule && r.Kind() == KindSemiring {
			r = toModule(r)
		}
		if r.Kind() == KindModule && l.Kind() == KindSemiring {
			l = toModule(l)
		}
		return newCmp(n.Th, l, r)
	default:
		return e
	}
}

func coerceAll(es []Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = coerce(e)
	}
	return out
}

// toModule converts a semiring constant into a monoid constant; other
// semiring expressions are left untouched (Validate rejects them with a
// precise error if they end up in a module position).
func toModule(e Expr) Expr {
	if c, ok := e.(Const); ok {
		return MConst{c.V}
	}
	return e
}
