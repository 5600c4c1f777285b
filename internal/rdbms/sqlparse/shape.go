package sqlparse

import (
	"strconv"
	"strings"

	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// Shape is a statement with the literals of its WHERE clause lifted out:
// Text is the statement as the plan cache keys it, Params the lifted
// values in slot order. Two statements that differ only in those literals
// — and not in their types — have the same Text.
type Shape struct {
	Text   string
	Params []types.Datum
	// Select reports whether the statement is a SELECT; only a SELECT has
	// its literals lifted.
	Select bool
	// Matches reports a call of matches(...), which binds a result set per
	// statement and so makes the statement uncacheable.
	Matches bool
}

// ScanShape lifts a statement's WHERE-clause literals to typed parameters
// in one pass over its tokens. A number or string literal becomes a
// parameter token — "$", a type class letter (i integer, f real, t text)
// and its 1-based slot — when it is in the WHERE clause of a SELECT and
// outside the parentheses of any function call (or CAST or ANY); a "-" in
// unary position folds into the number after it, so "num > -5" lifts -5.
// Every other literal stays in Text verbatim: select-list, GROUP BY,
// HAVING, ORDER BY and LIMIT literals, whose structure the planner
// matches, and the keys of extraction calls.
//
// ParseShape(Text) with the parameters put back parses to what
// Parse(sql) parses to. Text the lexer rejects returns its error, as does
// a number Parse would reject; user text cannot contain a parameter token,
// so a shape never equals a statement's own text unless nothing was lifted.
func ScanShape(sql string) (Shape, error) {
	toks, buf, err := lexPooled(sql, false)
	defer putTokens(buf, toks)
	if err != nil {
		return Shape{}, err
	}
	sh := Shape{Text: sql}
	sh.Select = toks[0].kind == tkKeyword && toks[0].text == "SELECT"
	literals := 0
	for i, t := range toks {
		switch {
		case t.kind == tkNumber || t.kind == tkString:
			literals++
		case t.kind == tkIdent && t.text == "matches" && toks[i+1].kind == tkOp && toks[i+1].text == "(":
			sh.Matches = true
		}
	}
	if !sh.Select || literals == 0 {
		return sh, nil
	}
	var (
		out      strings.Builder // the shape so far, up to copied
		copied   int             // input offset copied into out
		inWhere  bool
		callBuf  [16]bool
		calls    = callBuf[:0] // per open parenthesis: is it a call's
		callOpen int           // open call parentheses
	)
	for i := 1; i < len(toks); i++ {
		t := toks[i]
		switch t.kind {
		case tkKeyword:
			if len(calls) == 0 {
				switch t.text {
				case "WHERE":
					inWhere = true
				case "GROUP", "HAVING", "ORDER", "LIMIT":
					inWhere = false
				}
			}
			continue
		case tkOp:
			switch t.text {
			case "(":
				p := toks[i-1]
				call := p.kind == tkIdent || p.kind == tkKeyword && (p.text == "CAST" || p.text == "ANY")
				calls = append(calls, call)
				if call {
					callOpen++
				}
			case ")":
				if n := len(calls); n > 0 {
					if calls[n-1] {
						callOpen--
					}
					calls = calls[:n-1]
				}
			}
			continue
		case tkNumber, tkString:
		default:
			continue
		}
		if !inWhere || callOpen > 0 {
			continue
		}
		start := t.pos
		var val types.Datum
		if t.kind == tkString {
			val = types.NewText(t.text)
		} else {
			d, ok := numberDatum(t.text)
			if !ok {
				return Shape{}, &ParseError{Pos: t.pos, Msg: "bad number " + strconv.Quote(t.text)}
			}
			val = d
			if unarySign(toks, i-1) {
				// A sign chain ("- -5", "- +5") folds more than once in the
				// parser; the literal stays in the text.
				if unarySign(toks, i-2) {
					continue
				}
				if toks[i-1].text == "-" {
					val = negate(val)
					start = toks[i-1].pos
				}
			}
		}
		if sh.Params == nil {
			out.Grow(len(sql) + 6*literals)
			sh.Params = make([]types.Datum, 0, literals)
		}
		var tok [24]byte
		out.WriteString(sql[copied:start])
		out.WriteByte(' ')
		out.Write(appendParamToken(tok[:0], len(sh.Params), val.Typ))
		out.WriteByte(' ')
		copied = t.end
		sh.Params = append(sh.Params, val)
	}
	if sh.Params != nil {
		out.WriteString(sql[copied:])
		sh.Text = out.String()
	}
	return sh, nil
}

// unarySign reports whether toks[i] is a "-" or "+" in unary position:
// after an operator other than ")" or a keyword other than a value (NULL,
// TRUE, FALSE). A shape scan never looks at the first token, SELECT.
func unarySign(toks []token, i int) bool {
	if i < 1 || toks[i].kind != tkOp || (toks[i].text != "-" && toks[i].text != "+") {
		return false
	}
	switch p := toks[i-1]; p.kind {
	case tkOp:
		return p.text != ")"
	case tkKeyword:
		return p.text != "NULL" && p.text != "TRUE" && p.text != "FALSE"
	default:
		return false
	}
}

// appendParamToken appends the parameter of 0-based slot and type typ as
// it appears in a shape: "$i1", "$f2", "$t3".
func appendParamToken(b []byte, slot int, typ types.Type) []byte {
	class := byte('t')
	switch typ {
	case types.Int:
		class = 'i'
	case types.Float:
		class = 'f'
	default:
		// Text: the only other type a lifted literal has.
	}
	b = append(b, '$', class)
	return strconv.AppendInt(b, int64(slot+1), 10)
}
