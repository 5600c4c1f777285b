package jsonx

import (
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// SyntaxError describes a JSON parse failure with a byte offset.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("jsonx: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// Handler receives the events of one JSON value in document order. Key and
// String pass bytes that are valid only during the call: they alias the
// input, or the scanner's unescape buffer when the text held an escape.
type Handler interface {
	BeginObject()
	// Key reports the key of the object member whose value follows.
	Key(key []byte)
	EndObject()
	BeginArray()
	EndArray()
	Null()
	Bool(b bool)
	Int(i int64)
	Float(f float64)
	String(s []byte)
}

// Scanner is the package's one JSON tokenizer: it validates a value and
// reports it to a Handler without building anything itself. The zero value
// is ready to use; reusing one Scanner reuses its unescape buffer.
type Scanner struct {
	scratch []byte
}

// Scan reports the single JSON value in data to h, requiring that nothing
// but whitespace follows it. Events already delivered when a syntax error
// is found are the caller's to discard.
func (s *Scanner) Scan(data []byte, h Handler) error {
	p := parser{data: data, h: h, scratch: s.scratch}
	p.skipSpace()
	err := p.parseValue(0)
	s.scratch = p.scratch[:0]
	if err != nil {
		return err
	}
	p.skipSpace()
	if p.pos != len(p.data) {
		return p.errf("trailing data after value")
	}
	return nil
}

// Parse parses a single JSON value from data, requiring that nothing but
// whitespace follows it.
func Parse(data []byte) (Value, error) {
	var s Scanner
	var t treeBuilder
	if err := s.Scan(data, &t); err != nil {
		return Value{}, err
	}
	return t.root, nil
}

// ParseString is Parse on a string.
func ParseString(s string) (Value, error) { return Parse([]byte(s)) }

// ParseDocument parses a JSON value and requires it to be an object, which
// is the unit of loading in Sinew (one document per row).
func ParseDocument(data []byte) (*Doc, error) {
	v, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if v.Kind != Object {
		return nil, &SyntaxError{Offset: 0, Msg: "top-level value is not an object"}
	}
	return v.Obj, nil
}

// treeBuilder is the Handler that builds the Value tree.
type treeBuilder struct {
	root Value
	open []container
}

// container is an object or array whose end has not been seen.
type container struct {
	doc *Doc   // nil for an array
	key string // object: the key of the member being scanned
	arr []Value
}

func (t *treeBuilder) add(v Value) {
	if len(t.open) == 0 {
		t.root = v
		return
	}
	c := &t.open[len(t.open)-1]
	if c.doc != nil {
		c.doc.Set(c.key, v)
	} else {
		c.arr = append(c.arr, v)
	}
}

func (t *treeBuilder) pop() container {
	c := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	return c
}

func (t *treeBuilder) BeginObject()    { t.open = append(t.open, container{doc: NewDoc()}) }
func (t *treeBuilder) Key(key []byte)  { t.open[len(t.open)-1].key = string(key) }
func (t *treeBuilder) EndObject()      { t.add(ObjectValue(t.pop().doc)) }
func (t *treeBuilder) BeginArray()     { t.open = append(t.open, container{}) }
func (t *treeBuilder) EndArray()       { t.add(Value{Kind: Array, A: t.pop().arr}) }
func (t *treeBuilder) Null()           { t.add(NullValue()) }
func (t *treeBuilder) Bool(b bool)     { t.add(BoolValue(b)) }
func (t *treeBuilder) Int(i int64)     { t.add(IntValue(i)) }
func (t *treeBuilder) Float(f float64) { t.add(FloatValue(f)) }
func (t *treeBuilder) String(s []byte) { t.add(StringValue(string(s))) }

// maxDepth bounds nesting so hostile inputs cannot overflow the stack.
const maxDepth = 512

type parser struct {
	data    []byte
	pos     int
	h       Handler
	scratch []byte // unescaped text of the string being scanned
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) parseValue(depth int) error {
	if depth > maxDepth {
		return p.errf("nesting too deep (limit %d)", maxDepth)
	}
	if p.pos >= len(p.data) {
		return p.errf("unexpected end of input")
	}
	switch c := p.data[p.pos]; {
	case c == '{':
		return p.parseObject(depth)
	case c == '[':
		return p.parseArray(depth)
	case c == '"':
		s, err := p.parseString()
		if err != nil {
			return err
		}
		p.h.String(s)
		return nil
	case c == 't':
		if err := p.parseLiteral("true"); err != nil {
			return err
		}
		p.h.Bool(true)
		return nil
	case c == 'f':
		if err := p.parseLiteral("false"); err != nil {
			return err
		}
		p.h.Bool(false)
		return nil
	case c == 'n':
		if err := p.parseLiteral("null"); err != nil {
			return err
		}
		p.h.Null()
		return nil
	case c == '-' || (c >= '0' && c <= '9'):
		return p.parseNumber()
	default:
		return p.errf("unexpected character %q", c)
	}
}

func (p *parser) parseLiteral(lit string) error {
	if len(p.data)-p.pos < len(lit) || string(p.data[p.pos:p.pos+len(lit)]) != lit {
		return p.errf("invalid literal")
	}
	p.pos += len(lit)
	return nil
}

func (p *parser) parseObject(depth int) error {
	p.pos++ // consume '{'
	p.h.BeginObject()
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == '}' {
		p.pos++
		p.h.EndObject()
		return nil
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '"' {
			return p.errf("expected object key string")
		}
		key, err := p.parseString()
		if err != nil {
			return err
		}
		p.h.Key(key)
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != ':' {
			return p.errf("expected ':' after object key")
		}
		p.pos++
		p.skipSpace()
		if err := p.parseValue(depth + 1); err != nil {
			return err
		}
		p.skipSpace()
		if p.pos >= len(p.data) {
			return p.errf("unterminated object")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			p.h.EndObject()
			return nil
		default:
			return p.errf("expected ',' or '}' in object")
		}
	}
}

func (p *parser) parseArray(depth int) error {
	p.pos++ // consume '['
	p.h.BeginArray()
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == ']' {
		p.pos++
		p.h.EndArray()
		return nil
	}
	for {
		p.skipSpace()
		if err := p.parseValue(depth + 1); err != nil {
			return err
		}
		p.skipSpace()
		if p.pos >= len(p.data) {
			return p.errf("unterminated array")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			p.h.EndArray()
			return nil
		default:
			return p.errf("expected ',' or ']' in array")
		}
	}
}

// parseString scans a string token and returns its unescaped text, which
// aliases the input when the token holds no escape and p.scratch otherwise.
func (p *parser) parseString() ([]byte, error) {
	p.pos++ // consume '"'
	start := p.pos
	// Fast path: no escapes, ASCII-safe scan.
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c == '"' {
			s := p.data[start:p.pos:p.pos]
			p.pos++
			return s, nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
		p.pos++
	}
	// Slow path with escape handling.
	buf := append(p.scratch[:0], p.data[start:p.pos]...)
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			p.scratch = buf // keep what it grew to
			return buf, nil
		case c < 0x20:
			return nil, p.errf("control character in string")
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return nil, p.errf("unterminated escape")
			}
			switch e := p.data[p.pos]; e {
			case '"':
				buf = append(buf, '"')
			case '\\':
				buf = append(buf, '\\')
			case '/':
				buf = append(buf, '/')
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, err := p.parseHexRune()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					// Expect a low surrogate continuation.
					if p.pos+2 < len(p.data) && p.data[p.pos+1] == '\\' && p.data[p.pos+2] == 'u' {
						p.pos += 2
						r2, err := p.parseHexRune()
						if err != nil {
							return nil, err
						}
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							r = dec
						} else {
							r = utf8.RuneError
						}
					} else {
						r = utf8.RuneError
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return nil, p.errf("invalid escape character %q", e)
			}
			p.pos++
		default:
			buf = append(buf, c)
			p.pos++
		}
	}
	return nil, p.errf("unterminated string")
}

// parseHexRune parses the 4 hex digits of a \uXXXX escape; p.pos is on 'u'
// at entry and on the final hex digit at exit.
func (p *parser) parseHexRune() (rune, error) {
	if p.pos+4 >= len(p.data) {
		return 0, p.errf("truncated \\u escape")
	}
	var r rune
	for i := 1; i <= 4; i++ {
		c := p.data[p.pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, p.errf("invalid hex digit %q in \\u escape", c)
		}
	}
	p.pos += 4
	return r, nil
}

func (p *parser) parseNumber() error {
	start := p.pos
	if p.data[p.pos] == '-' {
		p.pos++
	}
	digits := 0
	for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
		p.pos++
		digits++
	}
	if digits == 0 {
		return p.errf("invalid number")
	}
	// Leading-zero rule: "0" alone or "0.x" are fine; "01" is not.
	if digits > 1 && p.data[start] == '0' || digits > 1 && p.data[start] == '-' && p.data[start+1] == '0' {
		return p.errf("invalid leading zero in number")
	}
	isFloat := false
	if p.pos < len(p.data) && p.data[p.pos] == '.' {
		isFloat = true
		p.pos++
		frac := 0
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
			frac++
		}
		if frac == 0 {
			return p.errf("digits required after decimal point")
		}
	}
	if p.pos < len(p.data) && (p.data[p.pos] == 'e' || p.data[p.pos] == 'E') {
		isFloat = true
		p.pos++
		if p.pos < len(p.data) && (p.data[p.pos] == '+' || p.data[p.pos] == '-') {
			p.pos++
		}
		exp := 0
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
			exp++
		}
		if exp == 0 {
			return p.errf("digits required in exponent")
		}
	}
	text := p.data[start:p.pos]
	if !isFloat {
		// Up to 18 digits cannot overflow int64.
		if digits <= 18 {
			var i int64
			for _, c := range text[len(text)-digits:] {
				i = i*10 + int64(c-'0')
			}
			if text[0] == '-' {
				i = -i
			}
			p.h.Int(i)
			return nil
		}
		if i, err := strconv.ParseInt(string(text), 10, 64); err == nil {
			p.h.Int(i)
			return nil
		}
		// Out-of-range integers fall back to float, like most JSON parsers.
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		p.pos = start
		return p.errf("invalid number %q", text)
	}
	p.h.Float(f)
	return nil
}
