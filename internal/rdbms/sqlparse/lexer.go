// Package sqlparse implements the SQL dialect of the embedded RDBMS:
// a lexer, an AST, a recursive-descent parser, and an AST printer.
//
// The dialect covers what Sinew and its baselines need: SELECT with
// DISTINCT / joins / GROUP BY / HAVING / ORDER BY / LIMIT, scalar and
// aggregate functions, BETWEEN / IN / LIKE / IS NULL / = ANY predicates,
// CAST, COALESCE, INSERT, UPDATE, DELETE, CREATE/ALTER/DROP TABLE,
// TRUNCATE, EXPLAIN, and ANALYZE. Quoted identifiers preserve case and may
// contain dots ("user.id" is a single flattened-attribute name, per the
// paper's Table 1 queries).
package sqlparse

import (
	"fmt"
	"strings"
	"sync"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tkEOF tokenKind = iota
	tkIdent
	tkQuotedIdent
	tkKeyword
	tkNumber
	tkString
	tkOp     // punctuation and operators
	tkParam  // $<class><n>, only in statement shapes (ParseShape)
	tkInvald // lex error sentinel
)

type token struct {
	kind tokenKind
	text string // keywords uppercased; unquoted idents lowercased
	pos  int    // first byte of the token in the input
	end  int    // one past its last byte
}

// ParseError is a lex or parse failure with position information.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sql: parse error at position %d: %s", e.Pos, e.Msg)
}

var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true,
	"GROUP": true, "BY": true, "HAVING": true, "ORDER": true, "LIMIT": true,
	"OFFSET": true, "ASC": true, "DESC": true, "AS": true, "ON": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "OUTER": true,
	"CROSS": true, "AND": true, "OR": true, "NOT": true, "NULL": true,
	"IS": true, "IN": true, "BETWEEN": true, "LIKE": true, "ANY": true,
	"ALL": true, "TRUE": true, "FALSE": true, "CAST": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true,
	"SET": true, "DELETE": true, "CREATE": true, "TABLE": true,
	"DROP": true, "ALTER": true, "ADD": true, "COLUMN": true,
	"TRUNCATE": true, "EXPLAIN": true, "ANALYZE": true, "IF": true,
	"EXISTS": true, "PRIMARY": true, "KEY": true, "UNIQUE": true,
	"DEFAULT": true, "NULLS": true, "FIRST": true, "LAST": true,
	"USING": true, "RETURNING": true,
}

// maxKeywordLen is the length of the longest keyword (RETURNING).
const maxKeywordLen = 9

// keywordText maps each keyword to itself, so the lexer can hand out the
// canonical upper-case string without building one per identifier.
var keywordText = func() map[string]string {
	m := make(map[string]string, len(keywords))
	for k := range keywords {
		m[k] = k
	}
	return m
}()

// keywordOf reports whether word is a keyword in any letter case, and its
// canonical upper-case spelling. It does not allocate.
func keywordOf(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywordText[string(buf[:len(word)])]
	return kw, ok
}

// tokenBufs recycles token slices (as *[]token): a statement's tokens die
// with its parse or shape scan — nodes keep token texts, never the slice.
var tokenBufs sync.Pool

// lexPooled is lex into a recycled slice; the caller hands buf back with
// putTokens once the tokens are no longer read.
func lexPooled(input string, params bool) (toks []token, buf *[]token, err error) {
	buf, _ = tokenBufs.Get().(*[]token)
	if buf == nil {
		buf = new([]token)
	}
	toks, err = lex(input, params, (*buf)[:0])
	return toks, buf, err
}

// putTokens returns a lexPooled slice to the pool.
func putTokens(buf *[]token, toks []token) {
	clear(toks)
	*buf = toks[:0]
	tokenBufs.Put(buf)
}

// lex tokenizes input, appending to toks; the returned slice always ends
// with a tkEOF token. With params set it also accepts the parameter tokens
// of a statement shape ($i1, $f2, $t3: a type class letter and a 1-based
// slot); user text never has them, so "$" stays an unexpected character
// there.
func lex(input string, params bool, toks []token) ([]token, error) {
	if want := len(input)/4 + 2; cap(toks) < want {
		toks = make([]token, 0, want)
	}
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && input[i+1] == '*': // block comment
			j := strings.Index(input[i+2:], "*/")
			if j < 0 {
				return nil, &ParseError{Pos: i, Msg: "unterminated block comment"}
			}
			i += j + 4
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			if kw, ok := keywordOf(word); ok {
				toks = append(toks, token{kind: tkKeyword, text: kw, pos: start, end: i})
			} else {
				toks = append(toks, token{kind: tkIdent, text: strings.ToLower(word), pos: start, end: i})
			}
		case c == '"':
			start := i
			text, next, ok := lexQuoted(input, i, '"')
			if !ok {
				return nil, &ParseError{Pos: start, Msg: "unterminated quoted identifier"}
			}
			i = next
			toks = append(toks, token{kind: tkQuotedIdent, text: text, pos: start, end: i})
		case c == '\'':
			start := i
			text, next, ok := lexQuoted(input, i, '\'')
			if !ok {
				return nil, &ParseError{Pos: start, Msg: "unterminated string literal"}
			}
			i = next
			toks = append(toks, token{kind: tkString, text: text, pos: start, end: i})
		case c == '$' && params && i+2 < n && isParamClass(input[i+1]) && isDigit(input[i+2]):
			start := i
			i += 2
			for i < n && isDigit(input[i]) {
				i++
			}
			toks = append(toks, token{kind: tkParam, text: input[start:i], pos: start, end: i})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9'):
			start := i
			seenDot := false
			seenExp := false
			for i < n {
				d := input[i]
				if d >= '0' && d <= '9' {
					i++
					continue
				}
				if d == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
					continue
				}
				if (d == 'e' || d == 'E') && !seenExp && i > start {
					seenExp = true
					i++
					if i < n && (input[i] == '+' || input[i] == '-') {
						i++
					}
					continue
				}
				break
			}
			toks = append(toks, token{kind: tkNumber, text: input[start:i], pos: start, end: i})
		default:
			start := i
			// Multi-character operators first.
			two := ""
			if i+1 < n {
				two = input[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "||":
				toks = append(toks, token{kind: tkOp, text: two, pos: start, end: start + 2})
				i += 2
				continue
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', '.', ';':
				toks = append(toks, token{kind: tkOp, text: input[i : i+1], pos: start, end: start + 1})
				i++
			default:
				return nil, &ParseError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	toks = append(toks, token{kind: tkEOF, pos: n, end: n})
	return toks, nil
}

// lexQuoted reads the quoted token opening at input[start] (quote is its
// delimiter, doubled inside to escape it) and returns its content and the
// offset just past the closing quote. Content without an escape is a slice
// of input; ok is false when the quote is never closed.
func lexQuoted(input string, start int, quote byte) (text string, next int, ok bool) {
	n := len(input)
	i := start + 1
	for i < n && input[i] != quote {
		i++
	}
	if i == n {
		return "", 0, false
	}
	if i+1 >= n || input[i+1] != quote {
		return input[start+1 : i], i + 1, true
	}
	var sb strings.Builder
	sb.WriteString(input[start+1 : i])
	for i < n {
		if input[i] == quote {
			if i+1 < n && input[i+1] == quote { // doubled quote escape
				sb.WriteByte(quote)
				i += 2
				continue
			}
			return sb.String(), i + 1, true
		}
		sb.WriteByte(input[i])
		i++
	}
	return "", 0, false
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// isParamClass reports whether c is a parameter's type class letter: i
// (integer), f (real) or t (text).
func isParamClass(c byte) bool { return c == 'i' || c == 'f' || c == 't' }

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '$'
}
