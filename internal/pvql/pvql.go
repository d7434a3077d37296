// Package pvql implements PVQL, the declarative query language frontend
// over the paper's Q-algebra (Definition 5): a lexer and recursive-descent
// parser for a small SQL-like language producing a positioned AST with
// byte-offset error reporting. Semantic analysis against a pvc.Database
// lives in pvql/bind; the logical optimizer in pvql/opt.
//
// The grammar (EBNF; keywords are case-insensitive, identifiers are
// case-sensitive):
//
//	query      = select { "UNION" select } .
//	select     = "SELECT" selectList "FROM" fromList
//	             [ "WHERE" predicate ] [ "GROUP" "BY" columnList ] .
//	selectList = "*" | selectItem { "," selectItem } .
//	selectItem = ( aggCall | columnRef ) [ "AS" ident ] .
//	aggCall    = ( "SUM" | "COUNT" | "MIN" | "MAX" | "PROD" | "AVG" )
//	             "(" ( "*" | columnRef ) ")" .
//	fromList   = fromItem { ( "," | "JOIN" ) fromItem } .
//	fromItem   = ( ident | "(" query ")" ) [ "AS" ident ] .
//	predicate  = comparison { "AND" comparison } .
//	comparison = operand theta operand .
//	operand    = columnRef | number | string .
//	columnRef  = ident [ "." ident ] .
//	columnList = columnRef { "," columnRef } .
//	theta      = "=" | "==" | "!=" | "<>" | "<=" | ">=" | "<" | ">" .
//	number     = [ "-" | "+" ] digits | [ "-" | "+" ] "INF" .
//	string     = "'" { character | "''" } "'" .
//
// "JOIN" is the natural join ⋈ on the shared constant columns; "," is the
// cross product × (whose sides must have disjoint columns). "UNION" is
// the algebra's annotation-summing ∪. A select list that names exactly
// the grouping columns followed by the aggregation functions lowers to
// the $ operator; a subset of constant columns lowers to π; "AS" on a
// column lowers to δ. WHERE comparisons over aggregation columns are the
// paper's σ over semimodule values — they multiply the conditional
// expression [A θ B] into the annotation rather than filtering.
//
// PVQL is the only textual form of a plan: engine.Plan.String renders
// the algebra for display and is not parsed back.
package pvql

import "fmt"

// Error is a positioned PVQL error: Pos and End are byte offsets into the
// source text ([Pos, End), with End == Pos for point errors).
type Error struct {
	Pos, End int
	Msg      string
}

func (e *Error) Error() string { return fmt.Sprintf("pvql: offset %d: %s", e.Pos, e.Msg) }

// errf builds a positioned error spanning [pos, end).
func errf(pos, end int, format string, args ...any) *Error {
	if end < pos {
		end = pos
	}
	return &Error{Pos: pos, End: end, Msg: fmt.Sprintf(format, args...)}
}

// Render formats the error with the line/column and a caret into src,
// for CLI display:
//
//	1:17: unknown column "prce"
//	  SELECT shop, prce FROM S
//	               ^^^^
func (e *Error) Render(src string) string {
	line, col := 1, 1
	lineStart := 0
	for i := 0; i < e.Pos && i < len(src); i++ {
		if src[i] == '\n' {
			line++
			col = 1
			lineStart = i + 1
		} else {
			col++
		}
	}
	lineEnd := len(src)
	for i := lineStart; i < len(src); i++ {
		if src[i] == '\n' {
			lineEnd = i
			break
		}
	}
	width := e.End - e.Pos
	if width < 1 || e.Pos+width > lineEnd {
		width = 1
	}
	carets := make([]byte, 0, col-1+width)
	for i := lineStart; i < e.Pos && i < lineEnd; i++ {
		if src[i] == '\t' {
			carets = append(carets, '\t')
		} else {
			carets = append(carets, ' ')
		}
	}
	for i := 0; i < width; i++ {
		carets = append(carets, '^')
	}
	return fmt.Sprintf("%d:%d: %s\n  %s\n  %s", line, col, e.Msg, src[lineStart:lineEnd], carets)
}
