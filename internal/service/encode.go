package service

import (
	"encoding/base64"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/sinewdata/sinew/internal/rdbms"
	"github.com/sinewdata/sinew/internal/rdbms/types"
)

// The /query reply encoder. It appends a result straight into a pooled
// byte buffer instead of boxing every datum into map[string]any/[][]any
// for encoding/json to walk reflectively. The bytes are exactly what
// json.NewEncoder(w).Encode produced for that map: keys in sorted order,
// HTML-safe string escaping, encoding/json's float format, base64 for
// bytea, one trailing newline (encode_test.go holds the two side by side).

// maxPooledReply keeps one huge result from pinning its buffer in the pool.
const maxPooledReply = 1 << 20

var replyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// appendQueryReply renders a statement's result as the /query JSON reply.
// It fails only on a float JSON cannot carry (NaN, +Inf, -Inf).
func appendQueryReply(dst []byte, res *rdbms.Result) ([]byte, error) {
	dst = append(dst, '{')
	if res.Columns != nil {
		dst = append(dst, `"columns":[`...)
		for i, c := range res.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, c)
		}
		dst = append(dst, "],"...)
	}
	if res.ExplainText != "" {
		dst = append(dst, `"explain":`...)
		dst = appendJSONString(dst, res.ExplainText)
		dst = append(dst, ',')
	}
	if res.Columns != nil {
		dst = append(dst, `"rows":[`...)
		for i, row := range res.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendDatums(dst, row); err != nil {
				return dst, err
			}
		}
		dst = append(dst, "],"...)
	}
	dst = append(dst, `"rows_affected":`...)
	dst = strconv.AppendInt(dst, res.RowsAffected, 10)
	if res.Columns != nil {
		dst = append(dst, `,"types":[`...)
		for i, t := range res.Types {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, t.String())
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n'), nil
}

// appendDatums renders a row, or an array datum's elements, as a JSON array.
func appendDatums(dst []byte, ds []types.Datum) ([]byte, error) {
	dst = append(dst, '[')
	for i, d := range ds {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendDatum(dst, d); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendDatum renders one SQL value in its natural JSON shape.
func appendDatum(dst []byte, d types.Datum) ([]byte, error) {
	if d.IsNull() {
		return append(dst, "null"...), nil
	}
	switch d.Typ {
	case types.Bool:
		return strconv.AppendBool(dst, d.Bool()), nil
	case types.Int:
		return strconv.AppendInt(dst, d.I, 10), nil
	case types.Float:
		return appendJSONFloat(dst, d.Float())
	case types.Text:
		return appendJSONString(dst, d.Text()), nil
	case types.Bytes:
		if d.Bytes() == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '"')
		dst = base64.StdEncoding.AppendEncode(dst, d.Bytes())
		return append(dst, '"'), nil
	case types.Array:
		return appendDatums(dst, d.Array())
	default:
		return appendJSONString(dst, d.String()), nil
	}
}

// appendJSONFloat is encoding/json's float64 rendering: shortest 'f' form,
// or 'e' form outside [1e-6, 1e21) with a one-digit exponent unpadded.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("service: result holds %v, which JSON cannot represent", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString is encoding/json's string rendering with HTML escaping
// on: <, >, & and U+2028/U+2029 escaped, control bytes as \u00XX or their
// short forms, invalid UTF-8 replaced by U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
